package exchange

import (
	"math/rand"
	"reflect"
	"testing"

	"lighttrader/internal/lob"
	"lighttrader/internal/sbe"
)

// harness collects published packets and drives a fake clock.
type harness struct {
	t       *testing.T
	eng     *Engine
	clock   int64
	packets []sbe.Packet
}

func newHarness(t *testing.T) *harness {
	h := &harness{t: t}
	h.eng = New(func() int64 { h.clock++; return h.clock }, func(buf []byte) {
		pkt, err := sbe.DecodePacket(buf)
		if err != nil {
			t.Fatalf("published packet does not decode: %v", err)
		}
		h.packets = append(h.packets, pkt)
	})
	h.eng.ListSecurity(7, "ES")
	return h
}

func (h *harness) submit(req Request) []ExecReport {
	h.t.Helper()
	reps := h.eng.Submit(req)
	if len(reps) == 0 {
		h.t.Fatal("no exec reports")
	}
	return reps
}

func TestSubmitNewPublishesBookUpdate(t *testing.T) {
	h := newHarness(t)
	reps := h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 1, Side: lob.Bid, Price: 100, Qty: 5})
	if reps[0].Exec != ExecAccepted {
		t.Fatalf("exec = %v, want accepted", reps[0].Exec)
	}
	if len(h.packets) != 1 {
		t.Fatalf("published %d packets, want 1", len(h.packets))
	}
	inc := h.packets[0].Messages[0].Incremental
	if inc == nil || len(inc.Entries) != 1 {
		t.Fatalf("packet = %+v", h.packets[0])
	}
	e := inc.Entries[0]
	if e.Action != sbe.ActionNew || e.Entry != sbe.EntryBid || e.Price != 100 || e.Qty != 5 || e.Level != 1 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestMatchPublishesTrade(t *testing.T) {
	h := newHarness(t)
	h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 1, Side: lob.Ask, Price: 100, Qty: 5})
	reps := h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 2, Side: lob.Bid, Price: 100, Qty: 5})
	var sawFill bool
	for _, r := range reps {
		if r.Exec == ExecFilled && r.Qty == 5 && r.Price == 100 {
			sawFill = true
		}
	}
	if !sawFill {
		t.Fatalf("no fill report in %+v", reps)
	}
	last := h.packets[len(h.packets)-1]
	var sawTrade bool
	for _, m := range last.Messages {
		if m.Trade != nil {
			if m.Trade.Price != 100 || m.Trade.Qty != 5 || !m.Trade.AggressorBid {
				t.Fatalf("trade = %+v", m.Trade)
			}
			sawTrade = true
		}
	}
	if !sawTrade {
		t.Fatalf("no trade message in %+v", last)
	}
}

func TestPartialFillReport(t *testing.T) {
	h := newHarness(t)
	h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 1, Side: lob.Ask, Price: 100, Qty: 3})
	reps := h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 2, Side: lob.Bid, Price: 100, Qty: 10})
	var sawPartial bool
	for _, r := range reps {
		if r.Exec == ExecPartialFill {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatalf("want a partial-fill report, got %+v", reps)
	}
}

// TestMultiMakerFillReports pins "ExecFilled is terminal": a taker matched
// against several makers gets one fill per maker, and only the fill that
// completes it is ExecFilled — consumers retire the id on that report, so an
// earlier one would strand the rest of the quantity.
func TestMultiMakerFillReports(t *testing.T) {
	h := newHarness(t)
	for id := uint64(1); id <= 3; id++ {
		h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: id, Side: lob.Ask, Price: 100, Qty: 1})
	}
	var got []ExecType
	for _, r := range h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 9, Side: lob.Bid, Price: 100, Qty: 3}) {
		got = append(got, r.Exec)
	}
	want := []ExecType{ExecAccepted, ExecPartialFill, ExecPartialFill, ExecFilled}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reports = %v, want %v", got, want)
	}
}

func TestMarketOrderIOC(t *testing.T) {
	h := newHarness(t)
	h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 1, Side: lob.Ask, Price: 100, Qty: 3})
	h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 2, Side: lob.Bid, Type: Market, Qty: 10})
	b, _ := h.eng.Book(7)
	if _, resting := b.Order(2); resting {
		t.Fatal("market order remainder rested; want IOC cancel")
	}
	if _, ok := b.BestAsk(); ok {
		t.Fatal("ask not consumed")
	}
}

func TestMarketOrderNoLiquidity(t *testing.T) {
	h := newHarness(t)
	reps := h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 1, Side: lob.Bid, Type: Market, Qty: 1})
	if reps[0].Exec != ExecRejected {
		t.Fatalf("exec = %v, want rejected", reps[0].Exec)
	}
}

func TestCancelAndReplace(t *testing.T) {
	h := newHarness(t)
	h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 1, Side: lob.Bid, Price: 100, Qty: 5})
	reps := h.submit(Request{Kind: ReqReplace, SecurityID: 7, ClOrdID: 1, NewClOrdID: 2, Side: lob.Bid, Price: 101, Qty: 4})
	if reps[0].Exec != ExecReplaced || reps[0].ClOrdID != 2 {
		t.Fatalf("replace report = %+v", reps[0])
	}
	reps = h.submit(Request{Kind: ReqCancel, SecurityID: 7, ClOrdID: 2})
	if reps[0].Exec != ExecCanceled {
		t.Fatalf("cancel report = %+v", reps[0])
	}
	b, _ := h.eng.Book(7)
	if _, ok := b.BestBid(); ok {
		t.Fatal("book not empty after cancel")
	}
}

func TestRejections(t *testing.T) {
	h := newHarness(t)
	reps := h.eng.Submit(Request{Kind: ReqNew, SecurityID: 99, ClOrdID: 1, Price: 1, Qty: 1})
	if reps[0].Exec != ExecRejected {
		t.Fatalf("unknown security = %+v", reps[0])
	}
	reps = h.eng.Submit(Request{Kind: ReqCancel, SecurityID: 7, ClOrdID: 42})
	if reps[0].Exec != ExecRejected {
		t.Fatalf("cancel unknown = %+v", reps[0])
	}
	reps = h.eng.Submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 5, Side: lob.Bid, Price: -1, Qty: 1})
	if reps[0].Exec != ExecRejected {
		t.Fatalf("bad price = %+v", reps[0])
	}
}

// TestFeedReconstruction replays the published market data into a shadow
// book and checks it matches the engine's book exactly — the property the
// LightTrader packet parser relies on.
func TestFeedReconstruction(t *testing.T) {
	type shadowLevel struct {
		price int64
		qty   int64
	}
	shadow := [2][lob.DepthLevels]shadowLevel{}
	apply := func(pkt sbe.Packet) {
		for _, m := range pkt.Messages {
			if m.Incremental == nil {
				continue
			}
			for _, e := range m.Incremental.Entries {
				sideIdx := 0
				if e.Entry == sbe.EntryAsk {
					sideIdx = 1
				}
				lvl := int(e.Level) - 1
				switch e.Action {
				case sbe.ActionNew, sbe.ActionChange:
					shadow[sideIdx][lvl] = shadowLevel{price: e.Price, qty: int64(e.Qty)}
				case sbe.ActionDelete:
					shadow[sideIdx][lvl] = shadowLevel{}
				}
			}
		}
	}

	h := newHarness(t)
	ops := []Request{
		{Kind: ReqNew, SecurityID: 7, ClOrdID: 1, Side: lob.Bid, Price: 100, Qty: 5},
		{Kind: ReqNew, SecurityID: 7, ClOrdID: 2, Side: lob.Bid, Price: 99, Qty: 2},
		{Kind: ReqNew, SecurityID: 7, ClOrdID: 3, Side: lob.Ask, Price: 102, Qty: 4},
		{Kind: ReqNew, SecurityID: 7, ClOrdID: 4, Side: lob.Bid, Price: 101, Qty: 1},
		{Kind: ReqNew, SecurityID: 7, ClOrdID: 5, Side: lob.Ask, Price: 101, Qty: 3}, // crosses order 4
		{Kind: ReqReplace, SecurityID: 7, ClOrdID: 2, NewClOrdID: 6, Side: lob.Bid, Price: 98, Qty: 2},
		{Kind: ReqCancel, SecurityID: 7, ClOrdID: 1},
	}
	for _, op := range ops {
		h.eng.Submit(op)
	}
	for _, pkt := range h.packets {
		apply(pkt)
	}
	b, _ := h.eng.Book(7)
	snap := b.TakeSnapshot(0)
	for i := 0; i < lob.DepthLevels; i++ {
		if shadow[0][i].price != snap.Bids[i].Price || shadow[0][i].qty != snap.Bids[i].Qty {
			t.Fatalf("bid level %d: shadow %+v book %+v", i, shadow[0][i], snap.Bids[i])
		}
		if shadow[1][i].price != snap.Asks[i].Price || shadow[1][i].qty != snap.Asks[i].Qty {
			t.Fatalf("ask level %d: shadow %+v book %+v", i, shadow[1][i], snap.Asks[i])
		}
	}
}

func TestPublishSnapshot(t *testing.T) {
	h := newHarness(t)
	h.submit(Request{Kind: ReqNew, SecurityID: 7, ClOrdID: 1, Side: lob.Bid, Price: 100, Qty: 5})
	h.packets = nil
	if err := h.eng.PublishSnapshot(7); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.PublishSnapshot(99); err != ErrUnknownSecurity {
		t.Fatalf("snapshot unknown security = %v", err)
	}
	if len(h.packets) != 1 || h.packets[0].Messages[0].Snapshot == nil {
		t.Fatalf("packets = %+v", h.packets)
	}
	s := h.packets[0].Messages[0].Snapshot
	if len(s.Entries) != 1 || s.Entries[0].Price != 100 || s.Entries[0].Entry != sbe.EntryBid {
		t.Fatalf("snapshot entries = %+v", s.Entries)
	}
}

// TestStoredTopExact drives a seeded request mix against several books and
// checks, after every Submit, that each listing's stored top — what the next
// incremental is diffed against — equals the book's visible levels. The
// outcomes are tallied so that every request path is known to have run:
// resting and crossing limits, partial fills, market orders with and
// without an IOC remainder, market orders into an empty side, cancels,
// replaces, and every rejection.
func TestStoredTopExact(t *testing.T) {
	var clock int64
	e := New(func() int64 { clock++; return clock }, nil)
	secs := []int32{1, 2, 3}
	for _, sec := range secs {
		e.ListSecurity(sec, "S")
	}
	rng := rand.New(rand.NewSource(1))
	// placed holds ids that rested on each book; some have since filled or
	// been cancelled, which makes them unknown ids again, and drawing one of
	// those drops it.
	placed := map[int32][]uint64{}
	nextID := uint64(0)
	seen := map[string]int{}
	for step := 0; step < 20000; step++ {
		sec := secs[rng.Intn(len(secs))]
		old := uint64(1 << 40) // an id no order ever had
		if ids := placed[sec]; len(ids) > 0 && rng.Intn(8) > 0 {
			i := rng.Intn(len(ids))
			old = ids[i]
			if b, _ := e.Book(sec); !resting(b, old) {
				ids[i] = ids[len(ids)-1]
				placed[sec] = ids[:len(ids)-1]
			}
		}
		// Limits rest within ten ticks of 1000; one in five crosses it.
		side, off := lob.Side(rng.Intn(2)), int64(1+rng.Intn(10))
		if rng.Intn(5) == 0 {
			off = -off
		}
		if side == lob.Ask {
			off = -off
		}
		nextID++
		req := Request{SecurityID: sec, ClOrdID: nextID, Side: side, Price: 1000 - off,
			Qty: int64(1 + rng.Intn(6))}
		switch r := rng.Intn(100); {
		case r < 40:
		case r < 52:
			req.Type, req.Qty = Market, int64(1+rng.Intn(80))
		case r < 70:
			req.Kind, req.ClOrdID = ReqCancel, old
		case r < 85:
			req.Kind, req.ClOrdID, req.NewClOrdID = ReqReplace, old, nextID
		case r < 88:
			req.ClOrdID = old // a duplicate while old still rests
		case r < 90:
			req.Qty = -req.Qty
		case r < 92:
			req.Price = -req.Price
		case r < 94:
			req.Kind, req.ClOrdID, req.NewClOrdID, req.Qty = ReqReplace, old, nextID, 0
		case r < 96:
			req.Kind, req.ClOrdID, req.Price = ReqReplace, old, -req.Price
		case r < 97:
			if ids := placed[sec]; len(ids) > 0 {
				req.Kind, req.ClOrdID, req.NewClOrdID = ReqReplace, old, ids[rng.Intn(len(ids))]
			}
		case r < 98:
			req.SecurityID = 99
		default:
			req.Kind = RequestKind(7)
		}
		reps := e.Submit(req)
		var filled int64
		for _, r := range reps {
			switch r.Exec {
			case ExecPartialFill:
				seen["partial fill"]++
				filled += r.Qty
			case ExecFilled:
				filled += r.Qty
			}
		}
		var label string
		switch {
		case reps[0].Exec == ExecRejected:
			label = "rejected: " + reps[0].Reason
		case req.Kind == ReqCancel:
			label = "cancel"
		case req.Kind == ReqReplace:
			label = "replace"
		case req.Type == Market && filled < req.Qty:
			label = "market with IOC remainder"
		case req.Type == Market:
			label = "market filled"
		case filled > 0:
			label = "crossing limit"
		default:
			label = "resting limit"
		}
		seen[label]++
		if reps[0].Exec != ExecRejected {
			id := req.ClOrdID
			if req.Kind == ReqReplace {
				id = req.NewClOrdID
			}
			if b, _ := e.Book(sec); req.Kind != ReqCancel && resting(b, id) {
				placed[sec] = append(placed[sec], id)
			}
		}
		for _, s := range secs {
			l := e.listings[s]
			snap := l.book.TakeSnapshot(0)
			if l.top[0] != snap.Bids || l.top[1] != snap.Asks {
				t.Fatalf("step %d (%s on %d): security %d stored top\n%v\n%v\nbook\n%v\n%v",
					step, label, sec, s, l.top[0], l.top[1], snap.Bids, snap.Asks)
			}
		}
	}
	for _, want := range []string{"resting limit", "crossing limit", "partial fill", "market filled",
		"market with IOC remainder", "rejected: no liquidity", "cancel", "replace",
		"rejected: " + lob.ErrUnknownOrder.Error(), "rejected: " + lob.ErrDuplicateID.Error(),
		"rejected: " + lob.ErrBadQty.Error(), "rejected: " + lob.ErrBadPrice.Error(),
		"rejected: " + ErrUnknownSecurity.Error(), "rejected: unknown request kind 7"} {
		if seen[want] == 0 {
			t.Errorf("the mix never ran %q (ran %v)", want, seen)
		}
	}
}

func resting(b *lob.Book, id uint64) bool {
	_, ok := b.Order(id)
	return ok
}

// TestSubmitAllocs pins a marketable order at one allocation, the exec
// reports it returns: reading levels, matching, diffing and encoding reuse
// the engine's scratch.
func TestSubmitAllocs(t *testing.T) {
	var clock int64
	e := New(func() int64 { clock++; return clock }, nil)
	e.ListSecurity(1, "ALLOC")
	e.Submit(Request{Kind: ReqNew, SecurityID: 1, ClOrdID: 1, Side: lob.Ask, Price: 1000, Qty: 1 << 40})
	id := uint64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		id++
		e.Submit(Request{Kind: ReqNew, SecurityID: 1, ClOrdID: id, Side: lob.Bid, Type: Market, Qty: 2})
	})
	if allocs > 1 {
		t.Fatalf("a marketable order allocates %v times; want at most 1 (its reports)", allocs)
	}
}

// TestAppendSubmitAllocs: a marketable order whose reports go into a warm
// buffer allocates nothing, which is how the scenario world submits its
// own flow.
func TestAppendSubmitAllocs(t *testing.T) {
	var clock int64
	e := New(func() int64 { clock++; return clock }, nil)
	e.ListSecurity(1, "ALLOC")
	e.Submit(Request{Kind: ReqNew, SecurityID: 1, ClOrdID: 1, Side: lob.Ask, Price: 1000, Qty: 1 << 40})
	id := uint64(1)
	var reps []ExecReport
	submit := func() {
		id++
		reps = e.AppendSubmit(reps[:0], Request{Kind: ReqNew, SecurityID: 1, ClOrdID: id, Side: lob.Bid, Type: Market, Qty: 2})
	}
	submit()
	if len(reps) != 2 || reps[0].Exec != ExecAccepted || reps[1].Exec != ExecFilled {
		t.Fatalf("a marketable order reported %+v; want accepted then filled", reps)
	}
	if allocs := testing.AllocsPerRun(1000, submit); allocs != 0 {
		t.Fatalf("a marketable order into a warm buffer allocates %v times; want 0", allocs)
	}
}

// BenchmarkEngineSubmit times the matching engine's request mix: a resting
// limit order and its cancel, and a market order filled against a resting
// ask placed for it — two Submits an iteration each.
func BenchmarkEngineSubmit(b *testing.B) {
	seeded := func() *Engine {
		var clock int64
		e := New(func() int64 { clock++; return clock }, nil)
		e.ListSecurity(1, "BENCH")
		for lvl := int64(1); lvl <= lob.DepthLevels; lvl++ {
			e.Submit(Request{Kind: ReqNew, SecurityID: 1, ClOrdID: uint64(lvl), Side: lob.Bid, Price: 1000 - lvl, Qty: 10})
			e.Submit(Request{Kind: ReqNew, SecurityID: 1, ClOrdID: uint64(100 + lvl), Side: lob.Ask, Price: 1000 + lvl, Qty: 10})
		}
		return e
	}
	b.Run("limit-cancel", func(b *testing.B) {
		e := seeded()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := uint64(1000 + i)
			e.Submit(Request{Kind: ReqNew, SecurityID: 1, ClOrdID: id, Side: lob.Bid, Price: 1000 - int64(i%5) - 1, Qty: 3})
			e.Submit(Request{Kind: ReqCancel, SecurityID: 1, ClOrdID: id})
		}
	})
	b.Run("market", func(b *testing.B) {
		e := seeded()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := uint64(1000 + 2*i)
			e.Submit(Request{Kind: ReqNew, SecurityID: 1, ClOrdID: id, Side: lob.Ask, Price: 1000, Qty: 3})
			e.Submit(Request{Kind: ReqNew, SecurityID: 1, ClOrdID: id + 1, Side: lob.Bid, Type: Market, Qty: 3})
		}
	})
}
