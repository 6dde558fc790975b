package sched

import (
	"strings"
	"testing"

	"lighttrader/internal/sim"
)

// allVerdicts enumerates the full Verdict taxonomy. Extending the taxonomy
// must extend this list (TestDeferCauseCoversTaxonomy fails on a verdict
// whose String() is the unknown sentinel).
var allVerdicts = []Verdict{
	VerdictIssued, VerdictDeadlineInfeasible, VerdictPowerInfeasible, VerdictNoQueue,
	VerdictDegradedModel,
}

// TestDeferCauseCoversTaxonomy checks the shared verdict→cause mapping is
// total: every verdict maps to a defined sim.DeferCause, the infeasible
// verdicts map to their attributing causes, and the non-defer verdicts map
// to CauseNone.
func TestDeferCauseCoversTaxonomy(t *testing.T) {
	want := map[Verdict]sim.DeferCause{
		VerdictIssued:             sim.CauseNone,
		VerdictDeadlineInfeasible: sim.CauseDeadline,
		VerdictPowerInfeasible:    sim.CausePower,
		VerdictNoQueue:            sim.CauseNone,
		VerdictDegradedModel:      sim.CauseNone,
	}
	for _, v := range allVerdicts {
		if strings.Contains(v.String(), "?") {
			t.Fatalf("verdict %d has no String case — taxonomy extended without updating the test", v)
		}
		if got := v.DeferCause(); got != want[v] {
			t.Errorf("verdict %v: DeferCause = %v, want %v", v, got, want[v])
		}
	}
	// The enumeration itself must be exhaustive: probing one past the last
	// known verdict should hit the unknown sentinel.
	if next := Verdict(len(allVerdicts)); !strings.Contains(next.String(), "?") {
		t.Fatalf("Verdict(%d) = %q: taxonomy grew, extend allVerdicts and the mapping test", next, next)
	}
}

// TestPPWSchedulerMatchesPickIssueExplained checks the default strategy is
// a pure rehosting of Algorithm 1: identical issue and verdict for a sweep
// of contexts — the interface seam must not change a single decision.
func TestPPWSchedulerMatchesPickIssueExplained(t *testing.T) {
	cfg := testConfig(t, true, true)
	s := NewPPWScheduler(cfg)
	for _, queued := range []int{0, 1, 3, 8, 40} {
		for _, avail := range []int64{1_000, 200_000, 10_000_000} {
			for _, power := range []float64{0.1, 3, 55} {
				for _, cur := range cfg.Spec.DVFSTable() {
					wantIssue, wantV := PickIssueExplained(cfg, queued, avail, power, cur)
					dec := s.Decide(SchedContext{
						Queued: queued, AvailNanos: avail,
						PowerAvailWatts: power, Current: cur,
					})
					if dec.Issue != wantIssue || dec.Verdict != wantV {
						t.Fatalf("q=%d avail=%d power=%v cur=%v: Decide (%+v,%v) != PickIssueExplained (%+v,%v)",
							queued, avail, power, cur, dec.Issue, dec.Verdict, wantIssue, wantV)
					}
				}
			}
		}
	}
}

// TestSchedulerRegistry checks the name registry resolves every shipped
// policy, reports self-consistent names, and rejects unknown ones.
func TestSchedulerRegistry(t *testing.T) {
	cfg := testConfig(t, true, true)
	names := SchedulerNames()
	want := []string{"fcfs", "greedy", "ppw"}
	if len(names) != len(want) {
		t.Fatalf("SchedulerNames = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("SchedulerNames = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		f, err := FactoryByName(n)
		if err != nil {
			t.Fatalf("FactoryByName(%q): %v", n, err)
		}
		if s := f(cfg); s.Name() != n {
			t.Errorf("policy %q reports Name() = %q", n, s.Name())
		}
	}
	if f, err := FactoryByName("nonesuch"); err == nil || f != nil {
		t.Fatal("unknown scheduler name resolved")
	}
}

// TestFCFSSingleIssue: the FCFS baseline never batches.
func TestFCFSSingleIssue(t *testing.T) {
	cfg := testConfig(t, true, true)
	s := NewFCFSScheduler(cfg)
	dec := s.Decide(SchedContext{
		Queued: 16, AvailNanos: 10_000_000, PowerAvailWatts: 55,
		Current: cfg.StaticDVFS,
	})
	if dec.Verdict != VerdictIssued || dec.Issue.Batch != 1 {
		t.Fatalf("fcfs decision = %+v, want batch 1 issued", dec)
	}
	// Staying at the current feasible state avoids the switch stall.
	if dec.Issue.DVFS != cfg.StaticDVFS || dec.Issue.SwitchNanos != 0 {
		t.Fatalf("fcfs switched state needlessly: %+v", dec.Issue)
	}
}

// TestGreedyMaxBatch: the greedy baseline takes the whole feasible backlog.
func TestGreedyMaxBatch(t *testing.T) {
	cfg := testConfig(t, true, true)
	s := NewGreedyScheduler(cfg)
	dec := s.Decide(SchedContext{
		Queued: 16, AvailNanos: 10_000_000, PowerAvailWatts: 55,
		Current: cfg.StaticDVFS,
	})
	if dec.Verdict != VerdictIssued || dec.Issue.Batch != 16 {
		t.Fatalf("greedy decision = %+v, want batch 16", dec)
	}
}
