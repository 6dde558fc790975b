package lob

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// bookStateString mirrors refBook.stateString for the arena book.
func bookStateString(b *Book) string {
	return fmt.Sprintf("seq=%d last=%d bids=%v asks=%v",
		b.Seq(), b.LastTrade(), b.Levels(Bid, 1<<30), b.Levels(Ask, 1<<30))
}

func fillsEqual(a, b []Fill) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameErr(a, b error) bool {
	return errors.Is(a, b) && errors.Is(b, a) || (a == nil && b == nil)
}

// op is one randomized book operation for the differential stream.
type op struct {
	kind  int // 0 add, 1 cancel, 2 replace
	id    uint64
	newID uint64
	side  Side
	price int64
	qty   int64
}

// randOps generates a mixed operation stream around a moving mid so adds
// frequently cross, rest, stack at shared price levels, and get cancelled,
// replaced and reduced — including deliberately invalid operations.
func randOps(rng *rand.Rand, n int) []op {
	ops := make([]op, 0, n)
	nextID := uint64(1)
	live := []uint64{}
	mid := int64(1000)
	for len(ops) < n {
		mid += int64(rng.Intn(3) - 1)
		r := rng.Float64()
		switch {
		case r < 0.55 || len(live) == 0:
			id := nextID
			nextID++
			if rng.Float64() < 0.05 && len(live) > 0 {
				id = live[rng.Intn(len(live))] // deliberate duplicate
			}
			side := Side(rng.Intn(2))
			off := int64(rng.Intn(8)) - 2 // [-2,5]: crossing to passive
			price := mid - off
			if side == Ask {
				price = mid + off
			}
			if rng.Float64() < 0.02 {
				price = 0 // deliberate bad price
			}
			qty := int64(rng.Intn(10)) // 0 = deliberate bad qty
			ops = append(ops, op{kind: 0, id: id, side: side, price: price, qty: qty})
			live = append(live, id)
		case r < 0.75:
			id := live[rng.Intn(len(live))]
			if rng.Float64() < 0.1 {
				id = nextID + 1_000_000 // deliberate unknown
			}
			ops = append(ops, op{kind: 1, id: id})
		default:
			id := live[rng.Intn(len(live))]
			newID := nextID
			nextID++
			side := Side(rng.Intn(2))
			off := int64(rng.Intn(8)) - 2
			price := mid - off
			if side == Ask {
				price = mid + off
			}
			ops = append(ops, op{kind: 2, id: id, newID: newID, price: price, qty: int64(rng.Intn(10))})
			live = append(live, newID)
		}
	}
	return ops
}

// TestDifferentialVsReference drives ~1000-op randomized streams through
// the arena book and the retained reference implementation, requiring
// identical fills, identical errors, and identical observable state after
// every operation.
func TestDifferentialVsReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := New("DIFF")
		want := newRefBook("DIFF")
		for i, o := range randOps(rng, 1000) {
			var gf, wf []Fill
			var ge, we error
			switch o.kind {
			case 0:
				gf, ge = got.Add(o.id, o.side, o.price, o.qty)
				wf, we = want.Add(o.id, o.side, o.price, o.qty)
			case 1:
				ge = got.Cancel(o.id)
				we = want.Cancel(o.id)
			case 2:
				gf, ge = got.ReplaceTo(nil, o.id, o.newID, o.price, o.qty)
				wf, we = want.Replace(o.id, o.newID, o.price, o.qty)
			}
			if !sameErr(ge, we) {
				t.Fatalf("seed %d op %d %+v: err %v, reference %v", seed, i, o, ge, we)
			}
			if !fillsEqual(gf, wf) {
				t.Fatalf("seed %d op %d %+v: fills %v, reference %v", seed, i, o, gf, wf)
			}
			if gs, ws := bookStateString(got), want.stateString(); gs != ws {
				t.Fatalf("seed %d op %d %+v:\nbook      %s\nreference %s", seed, i, o, gs, ws)
			}
			if gs, ws := got.TakeSnapshot(int64(i)), want.TakeSnapshot(int64(i)); gs != ws {
				t.Fatalf("seed %d op %d: snapshot mismatch\nbook      %+v\nreference %+v", seed, i, gs, ws)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
		}
	}
}

// TestDuplicateIDEdge pins duplicate-id handling: rejected on Add whether
// the holder is resting or partially filled, re-usable after full release,
// and Replace-to-self allowed.
func TestDuplicateIDEdge(t *testing.T) {
	b := New("T")
	mustAdd(t, b, 1, Bid, 100, 5)
	if _, err := b.Add(1, Ask, 101, 5); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("dup add err %v", err)
	}
	// Partial fill keeps the id live.
	if fills, err := b.Add(2, Ask, 100, 2); err != nil || len(fills) != 1 {
		t.Fatalf("partial: %v %v", fills, err)
	}
	if _, err := b.Add(1, Bid, 99, 1); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("dup after partial err %v", err)
	}
	// Replace to the same id is allowed and keeps it live.
	if _, err := b.ReplaceTo(nil, 1, 1, 98, 4); err != nil {
		t.Fatalf("replace-to-self: %v", err)
	}
	// Full fill releases the id for reuse.
	if fills, err := b.Add(3, Ask, 98, 4); err != nil || len(fills) != 1 || fills[0].MakerID != 1 {
		t.Fatalf("fill out: %v %v", fills, err)
	}
	if _, err := b.Add(1, Bid, 97, 1); err != nil {
		t.Fatalf("id reuse after fill: %v", err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelPartiallyFilled pins that cancelling a partially filled order
// removes exactly the remaining quantity from its level.
func TestCancelPartiallyFilled(t *testing.T) {
	b := New("T")
	mustAdd(t, b, 1, Bid, 100, 10)
	mustAdd(t, b, 2, Bid, 100, 7)
	if fills, err := b.Add(3, Ask, 100, 4); err != nil || len(fills) != 1 || fills[0].Qty != 4 {
		t.Fatalf("fills %v err %v", fills, err)
	}
	// Order 1 has 6 left; cancelling must drop the level from 13 to 7.
	if err := b.Cancel(1); err != nil {
		t.Fatal(err)
	}
	bb, ok := b.BestBid()
	if !ok || bb.Qty != 7 || bb.Orders != 1 {
		t.Fatalf("best bid %+v ok=%v", bb, ok)
	}
	if _, ok := b.Order(1); ok {
		t.Fatal("cancelled order still resolvable")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplaceLosesTimePriority pins the CME semantics: a replaced order
// goes to the back of the queue even at the same price and quantity.
func TestReplaceLosesTimePriority(t *testing.T) {
	b := New("T")
	mustAdd(t, b, 1, Bid, 100, 5)
	mustAdd(t, b, 2, Bid, 100, 5)
	if _, err := b.ReplaceTo(nil, 1, 11, 100, 5); err != nil {
		t.Fatal(err)
	}
	fills, err := b.Add(3, Ask, 100, 10)
	if err != nil || len(fills) != 2 {
		t.Fatalf("fills %v err %v", fills, err)
	}
	if fills[0].MakerID != 2 || fills[1].MakerID != 11 {
		t.Fatalf("priority order wrong: %v", fills)
	}
}

// TestThinBookSnapshots pins snapshot behaviour when fewer than
// DepthLevels levels are populated: missing levels stay zero and sides are
// exported best-first.
func TestThinBookSnapshots(t *testing.T) {
	b := New("T")
	snap := b.TakeSnapshot(7)
	if snap != (Snapshot{Symbol: "T", TimeNanos: 7}) {
		t.Fatalf("empty snapshot %+v", snap)
	}
	mustAdd(t, b, 1, Bid, 100, 5)
	mustAdd(t, b, 2, Bid, 98, 3)
	mustAdd(t, b, 3, Ask, 103, 2)
	snap = b.TakeSnapshot(8)
	if snap.Bids[0] != (Level{Price: 100, Qty: 5, Orders: 1}) ||
		snap.Bids[1] != (Level{Price: 98, Qty: 3, Orders: 1}) ||
		snap.Bids[2] != (Level{}) {
		t.Fatalf("bids %+v", snap.Bids)
	}
	if snap.Asks[0] != (Level{Price: 103, Qty: 2, Orders: 1}) || snap.Asks[1] != (Level{}) {
		t.Fatalf("asks %+v", snap.Asks)
	}
	if snap.MidPrice() != 101.5 {
		t.Fatalf("mid %v", snap.MidPrice())
	}
	// One-sided book: mid undefined.
	if err := b.Cancel(3); err != nil {
		t.Fatal(err)
	}
	if m := b.TakeSnapshot(9); m.MidPrice() != 0 {
		t.Fatalf("one-sided mid %v", m.MidPrice())
	}
}

// TestBookZeroAlloc is the allocation-regression gate for the book layer:
// steady-state AddTo/Cancel churn, crossing AddTo matches, and
// TakeSnapshot must not allocate once the arena and levels are warm.
func TestBookZeroAlloc(t *testing.T) {
	b := New("T")
	for i := uint64(1); i <= 64; i++ {
		mustAdd(t, b, i, Bid, int64(90+i%8), 5)
		mustAdd(t, b, i+1000, Ask, int64(110+i%8), 5)
	}
	fills := make([]Fill, 0, 16)
	id := uint64(10_000)

	if n := testing.AllocsPerRun(200, func() {
		id++
		var err error
		fills, err = b.AddTo(fills[:0], id, Bid, 95, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("passive AddTo+Cancel: %v allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		id++
		// Cross: consume a resting ask, then restore it.
		var err error
		fills, err = b.AddTo(fills[:0], id, Bid, 110, 5)
		if err != nil || len(fills) == 0 {
			t.Fatalf("expected fills, got %v err %v", fills, err)
		}
		fills, err = b.AddTo(fills[:0], id+500_000, Ask, fills[0].Price, 5)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("crossing AddTo: %v allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		id++
		var err error
		fills, err = b.ReplaceTo(fills[:0], id-1+500_000, id+500_000, 111, 5)
		_ = fills
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReplaceTo: %v allocs/op, want 0", n)
	}

	var snap Snapshot
	if n := testing.AllocsPerRun(200, func() {
		snap = b.TakeSnapshot(1)
	}); n != 0 {
		t.Fatalf("TakeSnapshot: %v allocs/op, want 0", n)
	}
	_ = snap
}

// Seq returns the number of successful mutations applied to the book. It is
// used as the book-update sequence number in market-data publication.
func (b *Book) Seq() uint64 { return b.seq }
