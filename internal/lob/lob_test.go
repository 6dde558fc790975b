package lob

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Levels returns up to n aggregated levels from the top of side s, best
// first, in a new slice.
func (b *Book) Levels(s Side, n int) []Level {
	return b.AppendLevels(nil, s, n)
}

func mustAdd(t *testing.T, b *Book, id uint64, s Side, price, qty int64) []Fill {
	t.Helper()
	fills, err := b.Add(id, s, price, qty)
	if err != nil {
		t.Fatalf("Add(%d,%v,%d,%d): %v", id, s, price, qty, err)
	}
	return fills
}

func TestAddAndBest(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Bid, 100, 5)
	mustAdd(t, b, 2, Bid, 101, 3)
	mustAdd(t, b, 3, Ask, 103, 7)
	mustAdd(t, b, 4, Ask, 102, 2)

	bb, ok := b.BestBid()
	if !ok || bb.Price != 101 || bb.Qty != 3 {
		t.Fatalf("best bid = %+v, %v; want 101x3", bb, ok)
	}
	ba, ok := b.BestAsk()
	if !ok || ba.Price != 102 || ba.Qty != 2 {
		t.Fatalf("best ask = %+v, %v; want 102x2", ba, ok)
	}
	if mid, ok := b.Mid(); !ok || mid != 101.5 {
		t.Fatalf("mid = %v, %v; want 101.5", mid, ok)
	}
}

func TestEmptyBook(t *testing.T) {
	b := New("ES")
	if _, ok := b.BestBid(); ok {
		t.Fatal("empty book reported a best bid")
	}
	if _, ok := b.BestAsk(); ok {
		t.Fatal("empty book reported a best ask")
	}
	if _, ok := b.Mid(); ok {
		t.Fatal("empty book reported a mid")
	}
	if err := b.Cancel(42); err != ErrUnknownOrder {
		t.Fatalf("Cancel on empty book = %v, want ErrUnknownOrder", err)
	}
}

func TestMatchingPricePriority(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Ask, 105, 5)
	mustAdd(t, b, 2, Ask, 103, 5)
	// Crossing bid should lift the cheaper ask first.
	fills := mustAdd(t, b, 3, Bid, 105, 7)
	if len(fills) != 2 {
		t.Fatalf("got %d fills, want 2", len(fills))
	}
	if fills[0].MakerID != 2 || fills[0].Price != 103 || fills[0].Qty != 5 {
		t.Fatalf("first fill = %+v; want maker 2 @103 x5", fills[0])
	}
	if fills[1].MakerID != 1 || fills[1].Price != 105 || fills[1].Qty != 2 {
		t.Fatalf("second fill = %+v; want maker 1 @105 x2", fills[1])
	}
	if b.LastTrade() != 105 {
		t.Fatalf("last trade = %d, want 105", b.LastTrade())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingTimePriority(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Bid, 100, 4)
	mustAdd(t, b, 2, Bid, 100, 4)
	fills := mustAdd(t, b, 3, Ask, 100, 6)
	if len(fills) != 2 {
		t.Fatalf("got %d fills, want 2", len(fills))
	}
	if fills[0].MakerID != 1 || fills[0].Qty != 4 {
		t.Fatalf("first fill = %+v; want maker 1 x4 (time priority)", fills[0])
	}
	if fills[1].MakerID != 2 || fills[1].Qty != 2 {
		t.Fatalf("second fill = %+v; want maker 2 x2", fills[1])
	}
	// Maker 2 keeps priority with remaining 2 lots.
	o, ok := b.Order(2)
	if !ok || o.Qty != 2 {
		t.Fatalf("order 2 = %+v, %v; want qty 2", o, ok)
	}
}

func TestPartialFillRests(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Ask, 100, 3)
	fills := mustAdd(t, b, 2, Bid, 100, 10)
	if len(fills) != 1 || fills[0].Qty != 3 {
		t.Fatalf("fills = %+v; want one fill of 3", fills)
	}
	bb, ok := b.BestBid()
	if !ok || bb.Price != 100 || bb.Qty != 7 {
		t.Fatalf("best bid = %+v; want 100x7 remainder resting", bb)
	}
	if _, ok := b.BestAsk(); ok {
		t.Fatal("ask side should be empty after full fill")
	}
}

func TestCancel(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Bid, 100, 5)
	mustAdd(t, b, 2, Bid, 100, 5)
	if err := b.Cancel(1); err != nil {
		t.Fatal(err)
	}
	bb, _ := b.BestBid()
	if bb.Qty != 5 || bb.Orders != 1 {
		t.Fatalf("best bid after cancel = %+v; want qty 5, 1 order", bb)
	}
	if err := b.Cancel(1); err != ErrUnknownOrder {
		t.Fatalf("double cancel = %v; want ErrUnknownOrder", err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelRemovesEmptyLevel(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Ask, 100, 5)
	if err := b.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if b.Depth(Ask) != 0 {
		t.Fatalf("ask depth = %d after cancelling only order; want 0", b.Depth(Ask))
	}
}

func TestReplaceLosesPriority(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Bid, 100, 5)
	mustAdd(t, b, 2, Bid, 100, 5)
	if _, err := b.ReplaceTo(nil, 1, 10, 100, 5); err != nil {
		t.Fatal(err)
	}
	fills := mustAdd(t, b, 3, Ask, 100, 5)
	if len(fills) != 1 || fills[0].MakerID != 2 {
		t.Fatalf("fills = %+v; replaced order must lose time priority to order 2", fills)
	}
}

func TestReplaceCanCross(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Ask, 105, 5)
	mustAdd(t, b, 2, Bid, 100, 5)
	fills, err := b.ReplaceTo(nil, 2, 20, 105, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fills) != 1 || fills[0].MakerID != 1 || fills[0].Price != 105 {
		t.Fatalf("fills = %+v; want cross at 105 against order 1", fills)
	}
}

// TestReduceKeepsPriority: a partial fill reduces a resting order in place,
// and the order keeps its place in the queue.
func TestReduceKeepsPriority(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Bid, 100, 10)
	mustAdd(t, b, 2, Bid, 100, 10)
	mustAdd(t, b, 3, Ask, 100, 4)
	fills := mustAdd(t, b, 4, Ask, 100, 6)
	if len(fills) != 1 || fills[0].MakerID != 1 || fills[0].Qty != 6 {
		t.Fatalf("fills = %+v; reduced order must keep time priority", fills)
	}
}

// TestReduceToZeroRemoves: an order filled down to zero leaves the book, and
// so does its emptied level.
func TestReduceToZeroRemoves(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Bid, 100, 5)
	mustAdd(t, b, 2, Ask, 100, 5)
	if _, ok := b.Order(1); ok {
		t.Fatal("order 1 still present after a full fill")
	}
	if b.Depth(Bid) != 0 {
		t.Fatal("level retained after a full fill")
	}
}

func TestValidation(t *testing.T) {
	b := New("ES")
	if _, err := b.Add(1, Bid, 100, 0); err != ErrBadQty {
		t.Fatalf("zero qty = %v; want ErrBadQty", err)
	}
	if _, err := b.Add(1, Bid, 0, 5); err != ErrBadPrice {
		t.Fatalf("zero price = %v; want ErrBadPrice", err)
	}
	mustAdd(t, b, 1, Bid, 100, 5)
	if _, err := b.Add(1, Ask, 101, 5); err != ErrDuplicateID {
		t.Fatalf("duplicate id = %v; want ErrDuplicateID", err)
	}
	if _, err := b.ReplaceTo(nil, 99, 100, 101, 1); err != ErrUnknownOrder {
		t.Fatalf("Replace unknown = %v; want ErrUnknownOrder", err)
	}
}

func TestLevelsOrdering(t *testing.T) {
	b := New("ES")
	for i, p := range []int64{100, 98, 99, 97, 101} {
		mustAdd(t, b, uint64(i+1), Bid, p, 1)
	}
	for i, p := range []int64{105, 103, 104, 106, 102} {
		mustAdd(t, b, uint64(i+10), Ask, p, 1)
	}
	bids := b.Levels(Bid, 3)
	if bids[0].Price != 101 || bids[1].Price != 100 || bids[2].Price != 99 {
		t.Fatalf("bid levels = %+v; want 101,100,99", bids)
	}
	asks := b.Levels(Ask, 3)
	if asks[0].Price != 102 || asks[1].Price != 103 || asks[2].Price != 104 {
		t.Fatalf("ask levels = %+v; want 102,103,104", asks)
	}
}

func TestSnapshot(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Bid, 100, 5)
	mustAdd(t, b, 2, Ask, 102, 7)
	s := b.TakeSnapshot(12345)
	if s.Symbol != "ES" || s.TimeNanos != 12345 {
		t.Fatalf("snapshot header = %+v", s)
	}
	if s.Bids[0].Price != 100 || s.Asks[0].Price != 102 {
		t.Fatalf("snapshot top = bid %d ask %d", s.Bids[0].Price, s.Asks[0].Price)
	}
	if s.Bids[1].Price != 0 {
		t.Fatal("missing level must be zero")
	}
	if s.MidPrice() != 101 {
		t.Fatalf("mid = %v; want 101", s.MidPrice())
	}
	f := s.Features()
	if f[0] != 102 || f[1] != 7 || f[2] != 100 || f[3] != 5 {
		t.Fatalf("features = %v", f[:4])
	}
}

// TestSnapshotIntoOverwrites: SnapshotInto sets every field of a slot that
// already holds a deeper book's snapshot, so a thin book's missing levels
// read zero, as TakeSnapshot's do.
func TestSnapshotIntoOverwrites(t *testing.T) {
	deep := New("NQ")
	for i := int64(0); i < DepthLevels+2; i++ {
		mustAdd(t, deep, uint64(1+i), Bid, 100-i, 5)
		mustAdd(t, deep, uint64(100+i), Ask, 102+i, 7)
	}
	mustAdd(t, deep, 200, Bid, 102, 1) // a trade, so LastTrade is set
	thin := New("ES")
	mustAdd(t, thin, 1, Bid, 100, 5)
	var s Snapshot
	deep.SnapshotInto(&s, 1)
	if s != deep.TakeSnapshot(1) {
		t.Fatalf("SnapshotInto = %+v; want TakeSnapshot's %+v", s, deep.TakeSnapshot(1))
	}
	thin.SnapshotInto(&s, 2)
	if want := thin.TakeSnapshot(2); s != want {
		t.Fatalf("SnapshotInto over a deeper snapshot = %+v; want %+v", s, want)
	}
}

func TestSnapshotEmptyMid(t *testing.T) {
	b := New("ES")
	mustAdd(t, b, 1, Bid, 100, 5)
	s := b.TakeSnapshot(0)
	if s.MidPrice() != 0 {
		t.Fatalf("one-sided snapshot mid = %v; want 0", s.MidPrice())
	}
}

// TestRandomOpsInvariants drives the book with a random operation stream and
// checks the full invariant set after every mutation.
func TestRandomOpsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := New("ES")
	var live []uint64
	nextID := uint64(1)
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(10); {
		case op < 6: // add
			side := Side(rng.Intn(2))
			price := int64(90 + rng.Intn(21))
			qty := int64(1 + rng.Intn(20))
			if _, err := b.Add(nextID, side, price, qty); err != nil {
				t.Fatalf("op %d add: %v", i, err)
			}
			if _, ok := b.Order(nextID); ok {
				live = append(live, nextID)
			}
			nextID++
		case op < 8 && len(live) > 0: // cancel
			j := rng.Intn(len(live))
			id := live[j]
			if _, ok := b.Order(id); ok {
				if err := b.Cancel(id); err != nil {
					t.Fatalf("op %d cancel: %v", i, err)
				}
			}
			live = append(live[:j], live[j+1:]...)
		case len(live) > 0: // replace
			j := rng.Intn(len(live))
			id := live[j]
			if _, ok := b.Order(id); ok {
				price := int64(90 + rng.Intn(21))
				qty := int64(1 + rng.Intn(20))
				if _, err := b.ReplaceTo(nil, id, nextID, price, qty); err != nil {
					t.Fatalf("op %d replace: %v", i, err)
				}
				if _, ok := b.Order(nextID); ok {
					live = append(live, nextID)
				}
				nextID++
			}
			live = append(live[:j], live[j+1:]...)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("after op %d: %v", i, err)
		}
	}
}

// TestQuickConservation checks, via testing/quick, that matching conserves
// quantity: resting qty + filled qty == submitted qty for every order stream.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New("ES")
		ops := int(n%64) + 1
		var submitted, filled int64
		for i := 0; i < ops; i++ {
			qty := int64(1 + rng.Intn(50))
			price := int64(95 + rng.Intn(11))
			submitted += qty
			fills, err := b.Add(uint64(i+1), Side(rng.Intn(2)), price, qty)
			if err != nil {
				return false
			}
			for _, fl := range fills {
				filled += 2 * fl.Qty // consumes taker and maker quantity
			}
		}
		var resting int64
		for _, s := range []Side{Bid, Ask} {
			for _, l := range b.Levels(s, 1<<20) {
				resting += l.Qty
			}
		}
		return resting+filled == submitted && b.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddCancel(b *testing.B) {
	book := New("ES")
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		price := int64(90 + rng.Intn(21))
		if _, err := book.Add(id, Side(i%2), price, 1); err != nil {
			b.Fatal(err)
		}
		if _, ok := book.Order(id); ok {
			_ = book.Cancel(id)
		}
	}
}

func BenchmarkSnapshot(b *testing.B) {
	book := New("ES")
	for i := 0; i < 40; i++ {
		_, _ = book.Add(uint64(i+1), Bid, int64(80+i%10), 5)
		_, _ = book.Add(uint64(i+100), Ask, int64(101+i%10), 5)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = book.TakeSnapshot(int64(i))
	}
}

// Depth returns the number of populated price levels on side s.
func (b *Book) Depth(s Side) int {
	if s == Bid {
		return len(b.bids)
	}
	return len(b.asks)
}

// LastTrade returns the most recent execution price, or 0 if none.
func (b *Book) LastTrade() int64 { return b.lastTrade }
