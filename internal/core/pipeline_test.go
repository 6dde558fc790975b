package core

import (
	"testing"

	"lighttrader/internal/exchange"
	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
	"lighttrader/internal/mdclient"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/sbe"
	"lighttrader/internal/testutil"
	"lighttrader/internal/trading"
)

func snapsOf(ticks []feed.Tick) []lob.Snapshot {
	out := make([]lob.Snapshot, len(ticks))
	for i := range ticks {
		out[i] = ticks[i].Snapshot
	}
	return out
}

// TestPipelineEndToEnd drives the functional pipeline with generated
// packets against a live matching engine: packets parse, the local book
// mirror tracks the exchange book, inference runs, and orders execute.
func TestPipelineEndToEnd(t *testing.T) {
	cfg := testutil.CMEBook
	ticks := testutil.CMETicks(t, nn.Window+50)
	warm := ticks[:nn.Window]
	norm := offload.Calibrate(snapsOf(warm))

	model := nn.NewVanillaCNN()
	tcfg := trading.DefaultConfig(cfg.SecurityID)
	tcfg.MinConfidence = 0 // act on every directional signal in this test
	p, err := NewPipeline(cfg.Symbol, cfg.SecurityID, model, norm, tcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Orders go to a fresh exchange seeded with backstop liquidity.
	var clock int64
	eng := exchange.New(func() int64 { clock++; return clock }, nil)
	eng.ListSecurity(cfg.SecurityID, cfg.Symbol)
	eng.Submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: cfg.SecurityID, ClOrdID: 1,
		Side: lob.Bid, Price: cfg.MidPrice - 1, Qty: 1000})
	eng.Submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: cfg.SecurityID, ClOrdID: 2,
		Side: lob.Ask, Price: cfg.MidPrice + 1, Qty: 1000})

	var orders int
	for _, tk := range ticks {
		reqs, err := p.OnPacket(tk.Packet)
		if err != nil {
			t.Fatalf("OnPacket: %v", err)
		}
		for _, req := range reqs {
			orders++
			for _, rep := range eng.Submit(req) {
				p.OnExecReport(rep)
			}
		}
	}
	if p.Ticks() == 0 {
		t.Fatal("no ticks processed")
	}
	if p.Inferences() == 0 {
		t.Fatal("no inferences ran")
	}
	// The local mirror must agree with the generator's book top.
	last := ticks[len(ticks)-1].Snapshot
	got := p.Snapshot(0)
	if got.Bids[0].Price != last.Bids[0].Price || got.Asks[0].Price != last.Asks[0].Price {
		t.Fatalf("local book top (%d/%d) != exchange (%d/%d)",
			got.Bids[0].Price, got.Asks[0].Price, last.Bids[0].Price, last.Asks[0].Price)
	}
	if got.Bids[0].Qty != last.Bids[0].Qty || got.Asks[0].Qty != last.Asks[0].Qty {
		t.Fatalf("local book qty mismatch: %+v vs %+v", got.Bids[0], last.Bids[0])
	}
	if p.Trader().Position() < -10 || p.Trader().Position() > 10 {
		t.Fatalf("risk limit breached: position %d", p.Trader().Position())
	}
	t.Logf("pipeline: %d ticks, %d inferences, %d orders, position %d",
		p.Ticks(), p.Inferences(), orders, p.Trader().Position())
}

func TestPipelineBadPacket(t *testing.T) {
	p, err := NewPipeline("ES", 1, nn.NewVanillaCNN(), offload.Normalizer{}, trading.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.OnPacket([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage packet accepted")
	}
}

// TestPipelineSnapshotRecovery applies a full refresh and checks the local
// book is replaced.
func TestPipelineSnapshotRecovery(t *testing.T) {
	cfg := testutil.CMEBook
	ticks := testutil.CMETicks(t, 20)
	norm := offload.Calibrate(snapsOf(ticks))
	p, err := NewPipeline(cfg.Symbol, cfg.SecurityID, nn.NewVanillaCNN(), norm, trading.DefaultConfig(cfg.SecurityID))
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range ticks {
		if _, err := p.OnPacket(tk.Packet); err != nil {
			t.Fatal(err)
		}
	}
	if p.Snapshot(0).Bids[0].Price == 0 {
		t.Fatal("book empty after incremental replay")
	}
}

func TestFunctionalBacktest(t *testing.T) {
	cfg := testutil.CMEBook
	ticks := testutil.CMETicks(t, nn.Window+80)
	norm := offload.Calibrate(snapsOf(ticks))
	tcfg := trading.DefaultConfig(cfg.SecurityID)
	tcfg.MinConfidence = 0
	p, err := NewPipeline(cfg.Symbol, cfg.SecurityID, nn.NewVanillaCNN(), norm, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := FunctionalBacktest(ticks, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ticks != len(ticks) || rep.Inferences == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.FinalMid <= 0 {
		t.Fatalf("final mid %v", rep.FinalMid)
	}
	// PnL identity: cash + position·mid must equal the report's PnL.
	if got := p.Trader().MarkToMarket(rep.FinalMid); got != rep.PnLTicks {
		t.Fatalf("PnL mismatch: %v vs %v", got, rep.PnLTicks)
	}
	// A flat book that never moved and zero trades would give zero PnL;
	// with orders, PnL must be finite and bounded by position limits.
	if rep.PnLTicks > 1e9 || rep.PnLTicks < -1e9 {
		t.Fatalf("PnL %v implausible", rep.PnLTicks)
	}
}

// TestFeedHandlerArbitration replays a duplicated, locally reordered feed
// through an arbiter-fronted pipeline (the live loop's feed handling:
// mdclient.Arbiter delivering into OnDecodedPacket) and checks the book
// matches a clean replay exactly.
func TestFeedHandlerArbitration(t *testing.T) {
	cfg := testutil.CMEBook
	ticks := testutil.CMETicks(t, 200)
	norm := offload.Calibrate(snapsOf(ticks))

	build := func() *Pipeline {
		p, err := NewPipeline(cfg.Symbol, cfg.SecurityID, nn.NewSizedCNN("tiny", 8, 0), norm, trading.DefaultConfig(cfg.SecurityID))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	clean := build()
	for _, tk := range ticks {
		if _, err := clean.OnPacket(tk.Packet); err != nil {
			t.Fatal(err)
		}
	}

	arbitrated := build()
	h := mdclient.New(func(pkt sbe.Packet) {
		if _, err := arbitrated.OnDecodedPacket(pkt); err != nil {
			t.Fatal(err)
		}
	}, 8)
	// Feed A then B for every packet, with adjacent pairs swapped on B.
	for i := 0; i < len(ticks); i++ {
		if err := h.OnDatagram(ticks[i].Packet); err != nil {
			t.Fatal(err)
		}
		j := i ^ 1 // swap adjacent pairs
		if j < len(ticks) {
			if err := h.OnDatagram(ticks[j].Packet); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := clean.Snapshot(0), arbitrated.Snapshot(0)
	if a.Bids != b.Bids || a.Asks != b.Asks {
		t.Fatalf("arbitrated book diverged:\nclean %+v\narb   %+v", a, b)
	}
	if h.Stats().Duplicates == 0 {
		t.Fatal("no duplicates suppressed")
	}
	if h.Recovering() {
		t.Fatal("handler stuck in recovery")
	}
}

// TestMultiPipelineTwoInstruments drives two instruments over one shared
// channel and checks each pipeline tracks only its own book.
func TestMultiPipelineTwoInstruments(t *testing.T) {
	var clock int64
	var packets [][]byte
	eng := exchange.New(func() int64 { clock++; return clock }, func(buf []byte) {
		cp := make([]byte, len(buf))
		copy(cp, buf)
		packets = append(packets, cp)
	})
	eng.ListSecurity(1, "ESU6")
	eng.ListSecurity(2, "NQU6")

	mp := NewMultiPipeline()
	for _, sub := range []struct {
		id  int32
		sym string
	}{{1, "ESU6"}, {2, "NQU6"}} {
		if err := mp.Add(sub.sym, sub.id, nn.NewSizedCNN("tiny-"+sub.sym, 8, 0),
			offload.Normalizer{}, trading.DefaultConfig(sub.id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mp.Add("dup", 1, nn.NewSizedCNN("d", 8, 0), offload.Normalizer{}, trading.DefaultConfig(1)); err == nil {
		t.Fatal("duplicate security ID accepted")
	}
	// A fresh security ID must not smuggle in an already-subscribed symbol.
	if err := mp.Add("ESU6", 3, nn.NewSizedCNN("d2", 8, 0), offload.Normalizer{}, trading.DefaultConfig(3)); err == nil {
		t.Fatal("duplicate symbol accepted")
	}
	if got := mp.Symbols(); len(got) != 2 || got[0] != "ESU6" || got[1] != "NQU6" {
		t.Fatalf("Symbols() = %v", got)
	}
	if mp.Len() != 2 || len(mp.Pipelines()) != 2 {
		t.Fatalf("Len() = %d, Pipelines() = %d", mp.Len(), len(mp.Pipelines()))
	}

	// Interleaved order flow on both instruments.
	id := uint64(100)
	for i := 0; i < 30; i++ {
		id++
		eng.Submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: 1, ClOrdID: id,
			Side: lob.Side(i % 2), Price: int64(100000 + i%5 - 2 + 10*(i%2)), Qty: 3})
		id++
		eng.Submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: 2, ClOrdID: id,
			Side: lob.Side(i % 2), Price: int64(200000 + i%5 - 2 + 10*(i%2)), Qty: 7})
	}
	for _, pkt := range packets {
		for _, p := range mp.Pipelines() {
			if _, err := p.OnPacket(pkt); err != nil {
				t.Fatal(err)
			}
		}
	}

	p1, _ := mp.Pipeline(1)
	p2, _ := mp.Pipeline(2)
	s1 := p1.Snapshot(0)
	s2 := p2.Snapshot(0)
	// Each book must hold only its instrument's price range.
	if s1.Bids[0].Price < 99000 || s1.Bids[0].Price > 101000 {
		t.Fatalf("ES book contaminated: %+v", s1.Bids[0])
	}
	if s2.Bids[0].Price < 199000 || s2.Bids[0].Price > 201000 {
		t.Fatalf("NQ book contaminated: %+v", s2.Bids[0])
	}
	// Tick counts track only own-instrument updates.
	if p1.Ticks() == 0 || p2.Ticks() == 0 {
		t.Fatalf("ticks: ES %d NQ %d", p1.Ticks(), p2.Ticks())
	}
	// Books must match the engine exactly.
	b1, _ := eng.Book(1)
	b2, _ := eng.Book(2)
	e1 := b1.TakeSnapshot(0)
	e2 := b2.TakeSnapshot(0)
	for l := 0; l < lob.DepthLevels; l++ {
		if s1.Bids[l].Price != e1.Bids[l].Price || s1.Bids[l].Qty != e1.Bids[l].Qty {
			t.Fatalf("ES bid level %d: %+v vs %+v", l, s1.Bids[l], e1.Bids[l])
		}
		if s2.Asks[l].Price != e2.Asks[l].Price || s2.Asks[l].Qty != e2.Asks[l].Qty {
			t.Fatalf("NQ ask level %d: %+v vs %+v", l, s2.Asks[l], e2.Asks[l])
		}
	}
}

// Pipeline returns the per-instrument pipeline.
func (mp *MultiPipeline) Pipeline(securityID int32) (*Pipeline, bool) {
	p, ok := mp.pipes[securityID]
	return p, ok
}

// Symbols returns the subscribed symbols in subscription order.
func (mp *MultiPipeline) Symbols() []string {
	out := make([]string, len(mp.order))
	for i, id := range mp.order {
		out[i] = mp.pipes[id].Symbol()
	}
	return out
}
