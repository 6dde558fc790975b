package lighttrader

import (
	"context"
	"testing"
	"time"

	"lighttrader/internal/core"
)

// TestNewMatchesCoreConstructor pins what the functional options resolve to:
// New builds the same system as core.Configure + core.NewSystem with the
// positional arguments spelled out, byte-identical under the deterministic
// back-test.
func TestNewMatchesCoreConstructor(t *testing.T) {
	trace := smallTrace(t)
	via, err := New(NewVanillaCNN(),
		WithAccelerators(2),
		WithPowerBudget(Limited),
		WithWorkloadScheduling(),
		WithDVFSScheduling())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Configure(NewVanillaCNN(), 2, Limited, SchedulerOptions{
		WorkloadScheduling: true, DVFSScheduling: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := Backtest(trace, 20*time.Millisecond, via)
	b := Backtest(trace, 20*time.Millisecond, direct)
	if a != b {
		t.Fatalf("option-built system diverged from core.NewSystem:\n%+v\n%+v", a, b)
	}
}

// TestBacktestContext covers the context-aware replay: a live context is a
// no-op, a cancelled one presents nothing, and WithProbe observes every
// arrival.
func TestBacktestContext(t *testing.T) {
	trace := smallTrace(t)
	sys := func() System {
		s, err := New(NewVanillaCNN(), WithAccelerators(2), WithWorkloadScheduling())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	live := BacktestContext(context.Background(), trace, 20*time.Millisecond, sys())
	plain := Backtest(trace, 20*time.Millisecond, sys())
	if live != plain {
		t.Fatalf("live context perturbed the replay:\n%+v\n%+v", live, plain)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if m := BacktestContext(ctx, trace, 20*time.Millisecond, sys()); m.Total != 0 {
		t.Fatalf("cancelled replay presented %d queries", m.Total)
	}
	tr := NewTracer()
	m := BacktestContext(context.Background(), trace, 20*time.Millisecond, sys(), WithProbe(tr))
	if tr.Arrived() != m.Total {
		t.Fatalf("probe saw %d arrivals of %d", tr.Arrived(), m.Total)
	}
}

// servingFixture builds a two-instrument subscription set and the
// interleaved shared feed for the serving facade tests.
func servingFixture(t *testing.T) (func() *MultiPipeline, [][]byte) {
	t.Helper()
	// multi-shock lists three books; the fixture keeps the first two and
	// cuts the one stream to ≈ 180 ticks per book.
	src, err := ScenarioByName("multi-shock", 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := src.Script()
	sc.Instruments = sc.Instruments[:2]
	if src, err = NewScenario("facade", sc, 1); err != nil {
		t.Fatal(err)
	}
	feed := src.Ticks()[:360]
	var packets [][]byte
	for _, tk := range feed {
		packets = append(packets, tk.Packet)
	}
	build := func() *MultiPipeline {
		mp := NewMultiPipeline()
		for _, in := range sc.Instruments {
			var own []Tick
			for _, tk := range feed {
				if tk.Snapshot.Symbol == in.Symbol {
					own = append(own, tk)
				}
			}
			tcfg := DefaultTradingConfig(in.SecurityID)
			tcfg.MinConfidence = 0
			if err := mp.Add(in.Symbol, in.SecurityID, NewSizedCNN("facade-"+in.Symbol, 8, 0),
				CalibrateNormalizer(own), tcfg); err != nil {
				t.Fatal(err)
			}
		}
		return mp
	}
	return build, packets
}

// TestPublicServing drives the serving facade end to end: the inline
// (degenerate serial) configuration and a two-lane fleet with online
// Algorithm-1 admission replay the same shared feed and agree on every
// per-symbol order stream and runtime counter.
func TestPublicServing(t *testing.T) {
	build, packets := servingFixture(t)

	run := func(opts ...Option) (*Server, *OrderLog) {
		log := NewOrderLog()
		srv, err := NewServer(build(), append(opts, WithOrderSink(log.Sink()))...)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Run(ctx) }()
		for i, buf := range packets {
			if err := srv.Submit(int64(i), buf); err != nil {
				t.Fatal(err)
			}
		}
		srv.Drain()
		cancel()
		<-done
		return srv, log
	}

	inline, inlineLog := run(WithInline())
	fleet, fleetLog := run(WithAccelerators(2), WithMaxQueue(len(packets)+1),
		WithWorkloadScheduling(), WithDeadline(time.Hour))

	for _, srv := range []*Server{inline, fleet} {
		st := srv.Stats()
		if st.Submitted != len(packets) || st.Served != st.Submitted || st.Dropped() != 0 {
			t.Fatalf("lossless replay expected: %+v", st)
		}
	}
	if inline.Lanes() != 1 || !inline.Inline() {
		t.Fatalf("inline server: lanes=%d inline=%v", inline.Lanes(), inline.Inline())
	}
	if fleet.Lanes() != 2 || fleet.Inline() {
		t.Fatalf("fleet server: lanes=%d inline=%v", fleet.Lanes(), fleet.Inline())
	}
	if fleet.Stats().Batches == 0 {
		t.Fatal("admission enabled but no batches issued")
	}
	if inlineLog.Total() == 0 {
		t.Fatal("no orders generated; parity would be vacuous")
	}
	for _, id := range []int32{1, 2} {
		a, b := inlineLog.Orders(id), fleetLog.Orders(id)
		if len(a) != len(b) {
			t.Fatalf("security %d: inline %d orders, fleet %d", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("security %d order %d diverged: %+v vs %+v", id, i, a[i], b[i])
			}
		}
		ia, ok1 := inline.Snapshot(id, 0)
		ib, ok2 := fleet.Snapshot(id, 0)
		if !ok1 || !ok2 || ia.Bids != ib.Bids || ia.Asks != ib.Asks {
			t.Fatalf("security %d books diverged at quiesce", id)
		}
	}
}

// TestModelZooFacade covers degrade-to-cheaper-model switching through the
// facade: WithModelZoo wires a compiled ladder under the primary, a
// deadline inside the degrade window turns drop-only losses into counted
// degraded answers, a candidate no cheaper than the primary is rejected,
// and WithModelDegradation's default ladder builds without a zoo.
func TestModelZooFacade(t *testing.T) {
	trace := smallTrace(t)[:160]
	norm := CalibrateNormalizer(trace)
	build := func() *MultiPipeline {
		mp := NewMultiPipeline()
		tcfg := DefaultTradingConfig(1)
		if err := mp.Add("ESU6", 1, NewVanillaCNN(), norm, tcfg); err != nil {
			t.Fatal(err)
		}
		return mp
	}

	// The degrade window: a deadline the primary cannot meet at batch 1 but
	// the tier can, computed from the same latency tables NewServer compiles.
	primary, err := core.Configure(NewVanillaCNN(), 1, Sufficient, SchedulerOptions{WorkloadScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	tierModel := MustBuildZoo(SizedCNNSpec("facade-tier", 8, 0))
	tier, err := core.Configure(tierModel, 1, Sufficient, SchedulerOptions{WorkloadScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	primaryTT := primary.Sched.TotalNanos(primary.Sched.StaticDVFS, 1)
	tierTT := tier.Sched.TotalNanos(tier.Sched.StaticDVFS, 1)
	mid := time.Duration(primary.PrePipelineNanos + (primaryTT+tierTT)/2)

	replay := func(opts ...Option) ServeStats {
		srv, err := NewServer(build(), append([]Option{
			WithInline(), WithModelledClock(), WithDeadline(mid),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for i, tk := range trace {
			if err := srv.Submit(int64(i)*int64(time.Millisecond), tk.Packet); err != nil {
				t.Fatal(err)
			}
		}
		srv.Drain()
		return srv.Stats()
	}

	baseline := replay(WithWorkloadScheduling())
	ladder := replay(WithModelZoo(tierModel))

	if baseline.DeferredDeadline == 0 {
		t.Fatalf("baseline dropped nothing; the deadline window does not bite: %+v", baseline)
	}
	if ladder.Degrades == 0 || ladder.Served != ladder.Submitted || ladder.Dropped() != 0 {
		t.Fatalf("ladder did not recover the window: %+v", ladder)
	}
	if ladder.ResponseRate <= baseline.ResponseRate {
		t.Fatalf("ladder response %.3f not above drop-only %.3f", ladder.ResponseRate, baseline.ResponseRate)
	}
	if len(ladder.TierIssues) != 2 || ladder.TierIssues[1] != ladder.Degrades {
		t.Fatalf("tier accounting inconsistent: issues %v, degrades %d", ladder.TierIssues, ladder.Degrades)
	}

	// A candidate no cheaper than the primary can never be a useful rung.
	if _, err := NewServer(build(), WithInline(), WithDeadline(mid), WithModelZoo(NewVanillaCNN())); err == nil {
		t.Fatal("zoo with no cheaper model accepted")
	}

	// WithModelDegradation falls back to the default two-rung CNN ladder.
	srv, err := NewServer(build(), WithInline(), WithDeadline(mid), WithModelDegradation())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Stats().TierIssues); got != 3 {
		t.Fatalf("default ladder wired %d tiers, want 3 (primary + 2 rungs)", got)
	}
}

// TestScenarioFacade covers the unified-traffic vocabulary: ScenarioByName
// resolves the registry, WithScenario substitutes a scenario for the ticks
// argument of BacktestContext (identically to passing its Ticks()), and
// ReplayScenario drives a serving runtime losslessly from the same source.
func TestScenarioFacade(t *testing.T) {
	names := ScenarioNames()
	if len(names) == 0 {
		t.Fatal("no registered scenarios")
	}
	if _, err := ScenarioByName("no-such-regime", 1); err == nil {
		t.Fatal("unknown scenario name resolved")
	}
	src, err := ScenarioByName("flash-crash", 2)
	if err != nil {
		t.Fatal(err)
	}

	sys := func() System {
		s, err := New(NewVanillaCNN(), WithAccelerators(2), WithWorkloadScheduling())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	via := BacktestContext(context.Background(), nil, time.Millisecond, sys(), WithScenario(src))
	direct := Backtest(src.Ticks(), time.Millisecond, sys())
	if via != direct {
		t.Fatalf("WithScenario back-test diverged from explicit ticks:\n%+v\n%+v", via, direct)
	}
	if via.Total != len(src.Packets()) {
		t.Fatalf("back-test saw %d queries for %d scenario packets", via.Total, len(src.Packets()))
	}

	ins := src.Script().Instruments[0]
	tcfg := DefaultTradingConfig(ins.SecurityID)
	tcfg.MinConfidence = 0
	mp := NewMultiPipeline()
	if err := mp.Add(ins.Symbol, ins.SecurityID, NewSizedCNN("facade-scn", 4, 0),
		CalibrateNormalizer(src.Ticks()[:200]), tcfg); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(mp, WithInline())
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayScenario(srv, src); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Submitted != len(src.Packets()) || st.Served != st.Submitted || st.Dropped() != 0 {
		t.Fatalf("scenario replay through the serving facade lost queries: %+v", st)
	}
}
