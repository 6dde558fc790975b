package exchange

import (
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
