package bench

import (
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/serve"
	"lighttrader/internal/sim"
)

// powerDifferentialConfig is the single-accelerator differential system: the
// DeepLOB tables with the budget tightened until power binds even at N=1
// (only the lowest operating points fit under 1 W), so every drop cause the
// sweep reports is exercised by both engines on the same trace.
func powerDifferentialConfig() core.SystemConfig {
	cfg, err := core.Configure(nn.NewDeepLOB(), 1, core.Limited, core.Options{
		WorkloadScheduling: true, DVFSScheduling: true,
	})
	if err != nil {
		panic(err) // static config; cannot fail
	}
	cfg.Sched.PowerBudgetWatts = 1.0
	cfg.MaxQueue = 32
	return cfg
}

// TestSimServeLimitedPowerDifferential pins the serving runtime to the
// offline simulator on the paper's limited-power workload: one accelerator,
// one lane, modelled clock, identical scheduler config. Response counts and
// the per-cause drop attribution must agree exactly — the lane's take/retire
// path is the same decision procedure as core.System's advance loop, and any
// divergence here means the governor changed admission semantics rather than
// just power accounting.
func TestSimServeLimitedPowerDifferential(t *testing.T) {
	tc := PowerTraffic()
	tc.Ticks = 3000
	tc.TAvailNanos = 900_000
	qs := tc.Queries()

	simCfg := powerDifferentialConfig()
	sys, err := core.NewSystem(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity above the trace's event count: the DVFS comparison below needs
	// every event, not the ring's newest window.
	tr := sim.NewTracerCapacity(1 << 16)
	m := sim.RunWithOptions(qs, sys, sim.WithProbe(tr))
	attr := tr.Attribution()

	srvCfg := powerDifferentialConfig()
	srvTr := sim.NewTracerCapacity(1 << 16)
	srv, err := serve.New(powerMulti(1), serve.Config{
		Lanes:            1,
		Inline:           true,
		ModelledClock:    true,
		MaxQueue:         srvCfg.MaxQueue,
		Sched:            &srvCfg.Sched,
		TAvailNanos:      tc.TAvailNanos,
		PrePipelineNanos: srvCfg.PrePipelineNanos,
		Probe:            srvTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := powerFeed(len(qs), 1)
	for i, q := range qs {
		if err := srv.Submit(q.ArrivalNanos, packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	st := srv.Stats()

	if st.Submitted != m.Total {
		t.Errorf("submitted: serve %d, sim %d", st.Submitted, m.Total)
	}
	if st.Served != m.Responded {
		t.Errorf("responded: serve %d, sim %d", st.Served, m.Responded)
	}
	if st.Late != m.Late {
		t.Errorf("late: serve %d, sim %d", st.Late, m.Late)
	}
	if st.EvictedQueueFull != attr.Evicted {
		t.Errorf("evicted: serve %d, sim %d", st.EvictedQueueFull, attr.Evicted)
	}
	if st.DeferredDeadline != attr.DeferredDeadline {
		t.Errorf("deferred-deadline: serve %d, sim %d", st.DeferredDeadline, attr.DeferredDeadline)
	}
	if st.DeferredPower != attr.DeferredPower {
		t.Errorf("deferred-power: serve %d, sim %d", st.DeferredPower, attr.DeferredPower)
	}

	// Both engines drive one sched.Board, so the DVFS actions themselves —
	// instant, reason, accelerator, operating points, retime — must match
	// event for event, not only the totals they lead to.
	simEv, srvEv := tr.DVFSEvents(), srvTr.DVFSEvents()
	if len(simEv) != len(srvEv) {
		t.Errorf("DVFS events: serve %d, sim %d", len(srvEv), len(simEv))
	}
	for i := 0; i < len(simEv) && i < len(srvEv); i++ {
		if simEv[i] != srvEv[i] {
			t.Fatalf("DVFS event %d: serve %+v, sim %+v", i, srvEv[i], simEv[i])
		}
	}
	if tr.DVFSTransitions(sim.DVFSRedistribute) == 0 || tr.DVFSTransitions(sim.DVFSPark) == 0 {
		t.Error("vacuous differential: no redistribute or park event occurred")
	}

	// Non-vacuity: the trace must actually exercise service and both
	// Algorithm-1 drop causes, or the agreement above proves nothing.
	if m.Responded == 0 {
		t.Error("vacuous differential: no query was served")
	}
	if attr.DeferredDeadline == 0 {
		t.Error("vacuous differential: no deadline-infeasible drop occurred")
	}
	if attr.DeferredPower == 0 {
		t.Error("vacuous differential: no power-infeasible drop occurred")
	}
	t.Logf("differential: %d submitted, %d served, %d late, %d evicted, "+
		"%d deferred-deadline, %d deferred-power",
		m.Total, m.Responded, m.Late, attr.Evicted, attr.DeferredDeadline, attr.DeferredPower)
}

// TestGovernorRecoversDeferredPowerDrops is the recovery claim of the sweep
// at test scale: on the bursty limited-power workload the governor must turn
// power-infeasible drops into rescued issues — strictly fewer DeferredPower
// drops and a strictly higher response rate than the drop-on-power-infeasible
// status quo, with a non-zero rescue count proving the save-retry path (not
// some traffic accident) did it.
func TestGovernorRecoversDeferredPowerDrops(t *testing.T) {
	tc := PowerTraffic()
	tc.Ticks = 2500
	nogov := runServePower("bursty", tc, false)
	gov := runServePower("bursty", tc, true)

	if nogov.DeferredPower == 0 {
		t.Fatal("vacuous recovery test: status quo saw no power-infeasible drops")
	}
	if gov.DeferredPower >= nogov.DeferredPower {
		t.Errorf("DeferredPower: governor %d, status quo %d; want strict decrease",
			gov.DeferredPower, nogov.DeferredPower)
	}
	if gov.ResponseRate <= nogov.ResponseRate {
		t.Errorf("response rate: governor %.4f, status quo %.4f; want strict increase",
			gov.ResponseRate, nogov.ResponseRate)
	}
	if gov.Rescues == 0 {
		t.Error("governor recovered drops without recording a single rescue")
	}
	if gov.MaxPowerWatts > powerBudgetWatts+1e-6 {
		t.Errorf("governor max draw %.6f W exceeds the %d W budget", gov.MaxPowerWatts, powerBudgetWatts)
	}
	t.Logf("recovery: status quo %.2f%% response (%d deferred-power), governor %.2f%% (%d), %d rescues",
		100*nogov.ResponseRate, nogov.DeferredPower, 100*gov.ResponseRate, gov.DeferredPower, gov.Rescues)
}
