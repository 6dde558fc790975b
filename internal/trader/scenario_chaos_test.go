package trader_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/lob"
	"lighttrader/internal/mdclient"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/scenario"
	"lighttrader/internal/serve"
	"lighttrader/internal/testutil"
	"lighttrader/internal/trader"
	"lighttrader/internal/trading"
)

// The scenario-driven regression tests for the trader's degraded-mode order
// gating: the flash-crash and halt/resume byte streams (the same ones the
// bench matrix and the serving runtime replay) are fed straight into
// MultiTrader.OnDatagram, and the gate must suppress orders exactly while
// degraded and release them after recovery. Both streams are deterministic,
// so the counts are pinned, and pinned equal at Lanes 0 (inline) and 1.

// gateLaneCounts are the lane counts the gate tests run at. The lane case
// drains after every datagram, so the gate a lane reads is the one its
// packet was delivered under and the counts stay exact.
var gateLaneCounts = []int{0, 1}

// scenarioSpan finds a named phase in the source's span list.
func scenarioSpan(t *testing.T, src *scenario.Source, name string) scenario.PhaseSpan {
	t.Helper()
	for _, sp := range src.PhaseSpans() {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("scenario %s has no phase %q", src.Name(), name)
	return scenario.PhaseSpan{}
}

// feedSpan pushes one phase's packets through the trader, quiescing the
// runtime after each (a no-op inline), and returns the feed counters after
// checking that every generated order was either routed or suppressed.
func feedSpan(t *testing.T, tr *trader.MultiTrader, packets [][]byte, sp scenario.PhaseSpan) trader.FeedStats {
	t.Helper()
	for i := sp.FirstTick; i < sp.FirstTick+sp.Ticks; i++ {
		if err := tr.OnDatagram(packets[i]); err != nil {
			t.Fatalf("phase %s packet %d: %v", sp.Name, i, err)
		}
		tr.Serve().Drain()
	}
	fs := tr.FeedStats()
	if orders := tr.Serve().Stats().Orders; fs.Suppressed+fs.OrdersRouted != orders {
		t.Fatalf("after %s: %d suppressed + %d routed != %d generated",
			sp.Name, fs.Suppressed, fs.OrdersRouted, orders)
	}
	return fs
}

// startGateTrader builds the single-instrument loop at the given lane count
// and starts its runtime; stop cancels and joins it.
func startGateTrader(t *testing.T, ctx context.Context, cfg trader.Config, src *scenario.Source, lanes int) (*trader.MultiTrader, func()) {
	t.Helper()
	tr := newSingleTrader(t, cfg, newScenarioPipeline(t, src), serve.Config{Lanes: lanes, MaxQueue: len(src.Packets()) + 1})
	runCtx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() { defer close(done); _ = tr.Run(runCtx) }()
	return tr, func() { stop(); <-done }
}

// startSession runs the trader's order-entry client and waits for the
// session to establish; the returned channel closes once ctx has ended it.
func startSession(t *testing.T, ctx context.Context, tr *trader.MultiTrader) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); _ = tr.Client().Run(ctx) }()
	readyCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := tr.Client().WaitReady(readyCtx); err != nil {
		t.Fatalf("session never established: %v", err)
	}
	return done
}

// newScenarioPipeline builds a real tick-to-trade pipeline for the
// scenario's first instrument, calibrated on the scenario's own opening
// tape. Position limits are lifted: the gate tests deliberately leave
// intents unacked while the gate is closed, and bounded exposure would
// otherwise starve the post-recovery assertions.
func newScenarioPipeline(t *testing.T, src *scenario.Source) *core.Pipeline {
	t.Helper()
	ins := src.Script().Instruments[0]
	ticks := src.Ticks()
	n := len(ticks)
	if n > 300 {
		n = 300
	}
	snaps := make([]lob.Snapshot, n)
	for i := 0; i < n; i++ {
		snaps[i] = ticks[i].Snapshot
	}
	tcfg := trading.DefaultConfig(ins.SecurityID)
	tcfg.MinConfidence = 0.2 // untrained CNN hovers near uniform; let it trade
	tcfg.MaxPosition = 1 << 30
	p, err := core.NewPipeline(ins.Symbol, ins.SecurityID, nn.NewSizedCNN("scn-chaos", 4, 0),
		offload.Calibrate(snaps), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestScenarioFlashCrashGatesOrdersUntilReady replays the flash-crash
// scenario into a trader whose order-entry session is down. Every order
// intent through the calm tape and the crash itself must be suppressed by
// the degraded-mode gate; once the session establishes, the recovery tape
// must route orders again and the book mirror must match the scenario's
// final book exactly.
func TestScenarioFlashCrashGatesOrdersUntilReady(t *testing.T) {
	for _, lanes := range gateLaneCounts {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { flashCrashGate(t, lanes) })
	}
}

func flashCrashGate(t *testing.T, lanes int) {
	leak := testutil.StartLeakCheck()
	src, err := scenario.ByName("flash-crash", 3)
	if err != nil {
		t.Fatal(err)
	}
	packets := src.Packets()
	ticks := src.Ticks()
	ins := src.Script().Instruments[0]

	ctx, cancel := context.WithCancel(context.Background())
	srv, stopVenue := testutil.StartVenue(t, testutil.StaticBook(t, ins.SecurityID), 0)
	tr, stopRun := startGateTrader(t, ctx, trader.Config{
		OrderAddr:       srv.OrderAddr().String(),
		UUID:            0xCAFE11,
		KeepAliveMillis: 200,
		BackoffSeed:     1,
	}, src, lanes)

	// Session down: the whole pre-crash and crash tape rides the gate.
	feedSpan(t, tr, packets, scenarioSpan(t, src, "calm"))
	down := feedSpan(t, tr, packets, scenarioSpan(t, src, "crash"))
	if down.OrdersRouted != 0 || down.Suppressed != 2925 {
		t.Fatalf("session down: %d routed, %d suppressed; want 0 and 2925", down.OrdersRouted, down.Suppressed)
	}
	if tr.Recovering() {
		t.Fatal("in-order scenario stream should never trip feed recovery")
	}

	// Session up: the recovery tape must trade again.
	clientDone := startSession(t, ctx, tr)

	after := feedSpan(t, tr, packets, scenarioSpan(t, src, "recovery"))
	if after.OrdersRouted != 3045 || after.Suppressed != down.Suppressed {
		t.Fatalf("session up: %d routed, %d suppressed; want 3045 and %d",
			after.OrdersRouted, after.Suppressed, down.Suppressed)
	}

	// The mirror tracked the whole scenario; it must land on the final book.
	final := ticks[len(ticks)-1].Snapshot
	if local, _ := tr.Book(ins.SecurityID); !booksMatch(final, local) {
		t.Fatalf("book mirror diverged from the scenario's final book\nvenue %+v\nlocal %+v",
			final, local)
	}

	cancel()
	<-clientDone
	stopRun()
	stopVenue()
	leak.Verify(t, 5*time.Second)
}

// TestScenarioHaltResumeFreezesThenRecovers replays the halt/resume
// scenario through a live trading loop. The halt's withheld packets leave a
// sequence hole; the reopen tape must trip gap detection (orders freeze
// while the feed recovers) and the reopen snapshot must heal the stream and
// release the gate — including for the backlog the healing datagram itself
// drains, which is why the gate is refreshed at delivery.
func TestScenarioHaltResumeFreezesThenRecovers(t *testing.T) {
	for _, lanes := range gateLaneCounts {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { haltResumeGate(t, lanes) })
	}
}

func haltResumeGate(t *testing.T, lanes int) {
	leak := testutil.StartLeakCheck()
	src, err := scenario.ByName("halt-resume", 5)
	if err != nil {
		t.Fatal(err)
	}
	packets := src.Packets()

	ctx, cancel := context.WithCancel(context.Background())
	srv, stopVenue := testutil.StartVenue(t, testutil.StaticBook(t, src.Script().Instruments[0].SecurityID), 0)
	tr, stopRun := startGateTrader(t, ctx, trader.Config{
		OrderAddr:       srv.OrderAddr().String(),
		UUID:            0xCAFE12,
		KeepAliveMillis: 200,
		BackoffSeed:     2,
	}, src, lanes)

	clientDone := startSession(t, ctx, tr)

	// Healthy tape: orders flow.
	feedSpan(t, tr, packets, scenarioSpan(t, src, "calm"))
	preHalt := feedSpan(t, tr, packets, scenarioSpan(t, src, "spike"))
	if preHalt.OrdersRouted != 1599 {
		t.Fatalf("%d orders routed before the halt, want 1599", preHalt.OrdersRouted)
	}
	if tr.Recovering() {
		t.Fatal("feed recovering before the halt")
	}

	// The halt publishes nothing; its packets exist only as a sequence hole.
	halt := scenarioSpan(t, src, "halt")
	if halt.Ticks != 0 || halt.Withheld == 0 {
		t.Fatalf("halt span published %d ticks, withheld %d; want 0 and >0", halt.Ticks, halt.Withheld)
	}

	// The reopen tape arrives across the hole: gap detection must trip and
	// the gate must freeze orders while the feed recovers.
	duringReopen := feedSpan(t, tr, packets, scenarioSpan(t, src, "reopen"))
	if !tr.Recovering() {
		t.Fatal("sequence hole from the halt never tripped gap detection")
	}
	if duringReopen.OrdersRouted != preHalt.OrdersRouted {
		t.Fatalf("orders routed while recovering: %d -> %d",
			preHalt.OrdersRouted, duringReopen.OrdersRouted)
	}
	if duringReopen.Datagrams <= preHalt.Datagrams {
		t.Fatal("reopen tape was never ingested")
	}

	// The recovered phase opens with the venue's snapshot: the stream heals
	// and orders flow again.
	after := feedSpan(t, tr, packets, scenarioSpan(t, src, "recovered"))
	astats := tr.ArbiterStats()
	if tr.Recovering() {
		t.Fatalf("snapshot never healed the stream: %+v", astats)
	}
	if after.OrdersRouted != 2708 {
		t.Fatalf("%d orders routed after the snapshot, want 2708", after.OrdersRouted)
	}
	if want := (mdclient.Stats{Delivered: 2959, Duplicates: 8, Buffered: 8, Gaps: 1, Recoveries: 1}); astats != want {
		t.Fatalf("arbiter %+v, want %+v", astats, want)
	}

	cancel()
	<-clientDone
	stopRun()
	stopVenue()
	leak.Verify(t, 5*time.Second)
}

// TestScenarioLateSnapshotRoutesDrainedBacklog pins where the gate is
// evaluated. The flash-crash recovery snapshot is delivered late, after the
// packets that follow it have overflowed the reorder window and declared a
// gap; when it arrives it clears recovery and drains that parked backlog
// inside the same datagram. Those orders were generated on a healed feed and
// must be routed: a gate refreshed only once per datagram would still read
// the previous datagram's "recovering" when the sink fires.
func TestScenarioLateSnapshotRoutesDrainedBacklog(t *testing.T) {
	for _, lanes := range gateLaneCounts {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			leak := testutil.StartLeakCheck()
			src, err := scenario.ByName("flash-crash", 3)
			if err != nil {
				t.Fatal(err)
			}
			packets := src.Packets()

			ctx, cancel := context.WithCancel(context.Background())
			srv, stopVenue := testutil.StartVenue(t, testutil.StaticBook(t, src.Script().Instruments[0].SecurityID), 0)
			tr, stopRun := startGateTrader(t, ctx, trader.Config{
				OrderAddr:       srv.OrderAddr().String(),
				UUID:            0xCAFE13,
				KeepAliveMillis: 200,
				BackoffSeed:     3,
			}, src, lanes)
			clientDone := startSession(t, ctx, tr)

			feedSpan(t, tr, packets, scenarioSpan(t, src, "calm"))
			feedSpan(t, tr, packets, scenarioSpan(t, src, "crash"))

			// Hold the snapshot back; the next window's worth of packets parks
			// and the last of them declares the gap. Nothing is delivered.
			const window = 8 // newSingleTrader's reorder window
			rec := scenarioSpan(t, src, "recovery")
			snapshot := rec.FirstTick
			gapped := feedSpan(t, tr, packets, scenario.PhaseSpan{
				Name: "parked", FirstTick: snapshot + 1, Ticks: window})
			if !tr.Recovering() {
				t.Fatalf("a full reorder window never declared the gap: %+v", tr.ArbiterStats())
			}
			generated := tr.Serve().Stats().Orders

			healed := feedSpan(t, tr, packets, scenario.PhaseSpan{
				Name: "late snapshot", FirstTick: snapshot, Ticks: 1})
			if tr.Recovering() {
				t.Fatalf("the snapshot never healed the stream: %+v", tr.ArbiterStats())
			}
			drained := tr.Serve().Stats().Orders - generated
			if drained == 0 {
				t.Fatal("vacuous: the drained backlog generated no orders")
			}
			if healed.Suppressed != gapped.Suppressed || healed.OrdersRouted != gapped.OrdersRouted+drained {
				t.Fatalf("healing datagram generated %d orders: routed %d -> %d, suppressed %d -> %d; want all routed",
					drained, gapped.OrdersRouted, healed.OrdersRouted, gapped.Suppressed, healed.Suppressed)
			}

			cancel()
			<-clientDone
			stopRun()
			stopVenue()
			leak.Verify(t, 5*time.Second)
		})
	}
}
