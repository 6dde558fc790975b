package bench

import (
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
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

// withSeconds rebuilds a one-phase source (the paper and power scripts) at
// another length.
func withSeconds(src *scenario.Source, seconds float64) *scenario.Source {
	return rescript(src, func(sc *scenario.Script) { sc.Phases[0].DurationSecs = seconds })
}

// TestSimServeLimitedPowerDifferential pins the serving runtime to the
// offline simulator on the limited-power system, for the power sweep's
// paper-mixture script and every registry scenario: one accelerator, one
// lane (a multi-instrument scenario's books all share it), modelled clock,
// identical scheduler config. Response counts, the per-cause drop
// attribution and the DVFS event sequence must agree exactly — the lane's
// take/retire path is the same decision procedure as core.System's advance
// loop, and any divergence here means the governor changed admission
// semantics rather than just power accounting. A failing case replays as
// -run 'TestSimServeLimitedPowerDifferential/<scenario>'.
func TestSimServeLimitedPowerDifferential(t *testing.T) {
	const tAvail = 900_000
	srcs := []*scenario.Source{withSeconds(PowerTraffic(), 1.7)}
	for _, name := range scenario.Names() {
		src, err := scenario.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	for _, src := range srcs {
		t.Run(src.Name(), func(t *testing.T) { simServeDifferential(t, src, tAvail) })
	}
}

// simServeDifferential replays src through both engines at N = 1 and
// compares them.
func simServeDifferential(t *testing.T, src *scenario.Source, tAvail int64) {
	qs := src.Queries(tAvail)
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

	srvTr := sim.NewTracerCapacity(1 << 16)
	st := runScenarioServe(t, src, qs, src.Packets(), tAvail, srvTr)

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

	// Non-vacuity: the stream must actually exercise service, both
	// Algorithm-1 drop causes and the Board's redistribute and park steps,
	// or the agreement above proves nothing.
	if m.Responded == 0 {
		t.Error("vacuous differential: no query was served")
	}
	if attr.DeferredDeadline == 0 {
		t.Error("vacuous differential: no deadline-infeasible drop occurred")
	}
	if attr.DeferredPower == 0 {
		t.Error("vacuous differential: no power-infeasible drop occurred")
	}
	if tr.DVFSTransitions(sim.DVFSRedistribute) == 0 || tr.DVFSTransitions(sim.DVFSPark) == 0 {
		t.Error("vacuous differential: no redistribute or park event occurred")
	}
	t.Logf("differential: %d submitted, %d served, %d late, %d evicted, "+
		"%d deferred-deadline, %d deferred-power, %d DVFS events",
		m.Total, m.Responded, m.Late, attr.Evicted, attr.DeferredDeadline, attr.DeferredPower, len(simEv))
}

// TestGovernorRecoversDeferredPowerDrops is the recovery claim of the sweep
// at test scale: on the bursty limited-power workload the governor must turn
// power-infeasible drops into rescued issues — strictly fewer DeferredPower
// drops and a strictly higher response rate than the drop-on-power-infeasible
// status quo, with a non-zero rescue count proving the save-retry path (not
// some traffic accident) did it.
func TestGovernorRecoversDeferredPowerDrops(t *testing.T) {
	src := withSeconds(PowerTraffic(), 1.5)
	nogov := runServePower("bursty", src, false)
	gov := runServePower("bursty", src, true)

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
