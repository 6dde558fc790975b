package core

import (
	"testing"

	"lighttrader/internal/nn"
	"lighttrader/internal/sim"
	"lighttrader/internal/testutil"
)

// burstyQueries builds a deterministic bursty tick trace for system tests.
func burstyQueries(t *testing.T, n int, tAvail int64) []sim.Query {
	t.Helper()
	return sim.QueriesFromTicks(testutil.CMETicks(t, n), tAvail)
}

func mustSystem(t *testing.T, m *nn.Model, n int, pc PowerCondition, opts Options) *System {
	t.Helper()
	cfg, err := Configure(m, n, pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemAccountsEveryQuery(t *testing.T) {
	queries := burstyQueries(t, 3000, 1_000_000)
	for _, opts := range []Options{
		{},
		{WorkloadScheduling: true},
		{DVFSScheduling: true},
		{WorkloadScheduling: true, DVFSScheduling: true},
	} {
		sys := mustSystem(t, nn.NewVanillaCNN(), 2, Sufficient, opts)
		m := sim.Run(queries, sys)
		if m.Unaccounted != 0 {
			t.Fatalf("%s: %d unaccounted queries (%+v)", sys.Name(), m.Unaccounted, m)
		}
		if m.Responded == 0 {
			t.Fatalf("%s: nothing responded", sys.Name())
		}
		if m.EnergyJoules <= 0 {
			t.Fatalf("%s: energy %v", sys.Name(), m.EnergyJoules)
		}
	}
}

func TestSystemDeterministic(t *testing.T) {
	queries := burstyQueries(t, 2000, 1_000_000)
	opts := Options{WorkloadScheduling: true, DVFSScheduling: true}
	m1 := sim.Run(queries, mustSystem(t, nn.NewDeepLOB(), 4, Limited, opts))
	m2 := sim.Run(queries, mustSystem(t, nn.NewDeepLOB(), 4, Limited, opts))
	if m1 != m2 {
		t.Fatalf("non-deterministic run:\n%+v\n%+v", m1, m2)
	}
}

func TestMoreAcceleratorsImproveResponse(t *testing.T) {
	queries := burstyQueries(t, 4000, 1_000_000)
	r1 := sim.Run(queries, mustSystem(t, nn.NewDeepLOB(), 1, Sufficient, Options{})).ResponseRate
	r4 := sim.Run(queries, mustSystem(t, nn.NewDeepLOB(), 4, Sufficient, Options{})).ResponseRate
	if r4 <= r1 {
		t.Fatalf("response rate did not improve with accelerators: N=1 %.3f vs N=4 %.3f", r1, r4)
	}
}

func TestWorkloadSchedulingHelpsSmallN(t *testing.T) {
	// Fig. 13's first observation: WS cuts the miss rate when a small
	// accelerator count cannot absorb bursts at batch 1.
	queries := burstyQueries(t, 5000, 1_000_000)
	base := sim.Run(queries, mustSystem(t, nn.NewDeepLOB(), 1, Sufficient, Options{}))
	ws := sim.Run(queries, mustSystem(t, nn.NewDeepLOB(), 1, Sufficient, Options{WorkloadScheduling: true}))
	if ws.MissRate >= base.MissRate {
		t.Fatalf("WS did not reduce miss rate: baseline %.4f vs WS %.4f", base.MissRate, ws.MissRate)
	}
	if ws.MeanBatch <= base.MeanBatch {
		t.Fatalf("WS mean batch %.2f not above baseline %.2f", ws.MeanBatch, base.MeanBatch)
	}
}

func TestLatencyMatchesConfiguredPipeline(t *testing.T) {
	// An isolated query's tick-to-trade must equal the configured
	// pipeline latency (pre + t_total at the static state).
	cfg, err := Configure(nn.NewVanillaCNN(), 1, Sufficient, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := []sim.Query{{ID: 0, ArrivalNanos: 1000, DeadlineNanos: 10_000_000}}
	m := sim.Run(queries, sys)
	if m.Responded != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	want := cfg.TickToTradeNanos()
	if m.MeanLatencyNanos != want {
		t.Fatalf("isolated latency %d ns != configured %d ns", m.MeanLatencyNanos, want)
	}
}

func TestQueueEvictionUnderFlood(t *testing.T) {
	cfg, err := Configure(nn.NewDeepLOB(), 1, Limited, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxQueue = 4
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 200 simultaneous-ish arrivals against a ~300 µs service: most must
	// be evicted or deferred, none lost.
	queries := make([]sim.Query, 200)
	for i := range queries {
		queries[i] = sim.Query{ID: int64(i), ArrivalNanos: int64(i), DeadlineNanos: int64(i) + 2_000_000}
	}
	m := sim.Run(queries, sys)
	if m.Unaccounted != 0 {
		t.Fatalf("unaccounted = %d", m.Unaccounted)
	}
	if m.Dropped == 0 {
		t.Fatal("flood produced no drops")
	}
}

func TestProbeAttributionAccountsEveryMiss(t *testing.T) {
	// Overload a small system so all three miss causes can occur, and check
	// the tracer classifies every miss into exactly one cause: the class
	// counts must sum to Metrics.Dropped + Metrics.Late.
	queries := burstyQueries(t, 5000, 600_000)
	for _, opts := range []Options{
		{},
		{WorkloadScheduling: true, DVFSScheduling: true},
	} {
		cfg, err := Configure(nn.NewDeepLOB(), 2, Limited, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MaxQueue = 8 // force stale-tensor evictions under bursts
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := sim.NewTracer()
		m := sim.RunWithOptions(queries, sys, sim.WithProbe(tr))
		if m.Dropped == 0 {
			t.Fatalf("%s: overload produced no drops", sys.Name())
		}
		a := tr.Attribution()
		if a.DeferredOther != 0 {
			t.Fatalf("%s: %d uncaused defers (core must always attach a verdict)", sys.Name(), a.DeferredOther)
		}
		if a.Evicted+a.DeferredDeadline+a.DeferredPower != m.Dropped {
			t.Fatalf("%s: evicted %d + deferred %d/%d != dropped %d",
				sys.Name(), a.Evicted, a.DeferredDeadline, a.DeferredPower, m.Dropped)
		}
		if a.Late != m.Late {
			t.Fatalf("%s: late %d != metrics late %d", sys.Name(), a.Late, m.Late)
		}
		if a.Total() != m.Dropped+m.Late {
			t.Fatalf("%s: attribution %+v does not sum to %d misses", sys.Name(), a, m.Dropped+m.Late)
		}
		if tr.Arrived() != m.Total {
			t.Fatalf("%s: arrived %d != total %d", sys.Name(), tr.Arrived(), m.Total)
		}
	}
}

func TestProbeIsObserveOnly(t *testing.T) {
	// The determinism invariant: attaching a probe must not change a run.
	queries := burstyQueries(t, 3000, 1_000_000)
	opts := Options{WorkloadScheduling: true, DVFSScheduling: true}
	bare := sim.Run(queries, mustSystem(t, nn.NewDeepLOB(), 4, Limited, opts))
	traced := sim.RunWithOptions(queries, mustSystem(t, nn.NewDeepLOB(), 4, Limited, opts),
		sim.WithProbe(sim.NewTracer()))
	if bare != traced {
		t.Fatalf("instrumented run diverged:\nbare   %+v\ntraced %+v", bare, traced)
	}
}

func TestProbeObservesDVFSAndLoad(t *testing.T) {
	queries := burstyQueries(t, 4000, 20_000_000)
	sys := mustSystem(t, nn.NewDeepLOB(), 4, Limited,
		Options{WorkloadScheduling: true, DVFSScheduling: true})
	tr := sim.NewTracer()
	_ = sim.RunWithOptions(queries, sys, sim.WithProbe(tr))
	if tr.DVFSTransitions(sim.DVFSPark) == 0 {
		t.Fatal("DS never parked an idle accelerator")
	}
	if tr.DVFSTransitions(sim.DVFSAtIssue)+tr.DVFSTransitions(sim.DVFSRedistribute) == 0 {
		t.Fatal("no issue/redistribute DVFS transitions observed")
	}
	p := tr.PowerStats()
	if p.Samples == 0 || p.Max <= 0 {
		t.Fatalf("power series empty: %+v", p)
	}
	// The sampled peak must agree with the system's own budget accounting.
	if p.Max > sys.MaxObservedPowerWatts()+1e-9 {
		t.Fatalf("sampled peak %.2f W above system max %.2f W", p.Max, sys.MaxObservedPowerWatts())
	}
	q := tr.QueueStats()
	if q.Samples == 0 {
		t.Fatal("queue series empty")
	}
}

func TestConfigureValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg, err := Configure(nn.NewVanillaCNN(), 0, Sufficient, Options{})
	if err == nil {
		if _, err := NewSystem(cfg); err == nil {
			t.Fatal("zero accelerators accepted")
		}
	}
}

func TestTickToTradeAroundPaperValues(t *testing.T) {
	// Fig. 11a: 119/160/296 µs inference for CNN/TransLOB/DeepLOB; our
	// tick-to-trade adds ≈1 µs of pipeline. Check within ±25%.
	wants := map[string]float64{"VanillaCNN": 119_000, "TransLOB": 160_000, "DeepLOB": 296_000}
	for _, m := range nn.BenchmarkModels() {
		cfg, err := Configure(m, 1, Sufficient, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := float64(cfg.TickToTradeNanos())
		want := wants[m.Name()]
		if got < want*0.75 || got > want*1.25 {
			t.Fatalf("%s tick-to-trade %.0f ns, want ≈%.0f ±25%%", m.Name(), got, want)
		}
	}
}

func TestPowerBudgetRespected(t *testing.T) {
	queries := burstyQueries(t, 4000, 20_000_000)
	for _, pc := range []PowerCondition{Sufficient, Limited} {
		for _, n := range []int{1, 4, 16} {
			for _, opts := range []Options{
				{},
				{WorkloadScheduling: true, DVFSScheduling: true},
			} {
				sys := mustSystem(t, nn.NewDeepLOB(), n, pc, opts)
				_ = sim.Run(queries, sys)
				if got := sys.MaxObservedPowerWatts(); got > pc.AccelBudgetWatts*1.02 {
					t.Fatalf("%s: peak draw %.2f W exceeds budget %.1f W",
						sys.Name(), got, pc.AccelBudgetWatts)
				}
				if sys.MaxObservedPowerWatts() <= 0 {
					t.Fatalf("%s: no power observed", sys.Name())
				}
			}
		}
	}
}

func TestDVFSSchedulingSavesEnergy(t *testing.T) {
	// DS parks idle accelerators at the power floor, so with many mostly-
	// idle accelerators it must consume far less energy than the static
	// configuration for the same work.
	queries := burstyQueries(t, 4000, 20_000_000)
	static := sim.Run(queries, mustSystem(t, nn.NewTransLOB(), 8, Limited, Options{}))
	ds := sim.Run(queries, mustSystem(t, nn.NewTransLOB(), 8, Limited, Options{DVFSScheduling: true}))
	if ds.EnergyJoules >= static.EnergyJoules*0.8 {
		t.Fatalf("DS energy %.1f J not well below static %.1f J", ds.EnergyJoules, static.EnergyJoules)
	}
}

// TestDeadlineInfeasibleDeferDoesNotSavePower is the regression for the
// simulator's saving step firing on every failed verdict: freeing power
// cannot rescue a query no operating point is fast enough for, and the
// pointless scale-down slows an in-flight batch that the retime cap then
// bars Redistribute from speeding back up. Two accelerators under the
// limited budget: one is busy above the floor with ample slack when a query
// with a hopeless deadline arrives. It must be deferred on deadline without a
// single DVFSSave event (the run contains no power-infeasible verdict, so any
// save is the bug).
func TestDeadlineInfeasibleDeferDoesNotSavePower(t *testing.T) {
	sys := mustSystem(t, nn.NewDeepLOB(), 2, Limited,
		Options{WorkloadScheduling: true, DVFSScheduling: true})
	queries := []sim.Query{
		{ID: 0, ArrivalNanos: 0, DeadlineNanos: 5_000_000},
		{ID: 1, ArrivalNanos: 1_000, DeadlineNanos: 11_000}, // 10 µs: no state is that fast
	}
	tr := sim.NewTracer()
	m := sim.RunWithOptions(queries, sys, sim.WithProbe(tr))
	attr := tr.Attribution()
	if m.Responded != 1 || attr.DeferredDeadline != 1 || attr.DeferredPower != 0 {
		t.Fatalf("responded %d, deferred-deadline %d, deferred-power %d; want 1, 1, 0",
			m.Responded, attr.DeferredDeadline, attr.DeferredPower)
	}
	if tr.DVFSTransitions(sim.DVFSAtIssue)+tr.DVFSTransitions(sim.DVFSRedistribute) == 0 {
		t.Fatal("vacuous: the busy accelerator never left the floor, a save had nothing to scale down")
	}
	if n := tr.DVFSTransitions(sim.DVFSSave); n != 0 {
		t.Fatalf("deadline-infeasible defer triggered %d DVFSSave events: %+v", n, tr.DVFSEvents())
	}
}
