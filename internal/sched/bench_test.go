package sched

import (
	"testing"

	"lighttrader/internal/sim"
)

// BenchmarkDecide times what an engine runs per idle accelerator: Decide of
// a policy constructed once, over decideContexts (a deep backlog, a deadline
// that forces a state switch, a power-starved issue, a hopeless deadline).
// One op is one decision.
func BenchmarkDecide(b *testing.B) {
	cfg := testConfig(b, true, true)
	ctxs := decideContexts(cfg)
	for _, name := range SchedulerNames() {
		f, err := FactoryByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p := f(cfg)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkDecision = p.Decide(ctxs[i%len(ctxs)])
			}
		})
	}
}

// BenchmarkBoardRedistribute times Algorithm 2's second step as the engines
// run it: four accelerators busy at the floor state and 10 W of residual
// budget to climb with. Redistribute touches a batch once, so each op
// commits the four batches afresh (≈ 1 % of the op at the parent) and then
// redistributes.
func BenchmarkBoardRedistribute(b *testing.B) {
	cfg := testConfig(b, true, true)
	cfg.PowerBudgetWatts = 13
	board := NewBoard(cfg, nil, 4, boardPre, true, func(sim.DVFSEvent) {})
	floor := cfg.Spec.DVFSTable()[0]
	issue := Issue{Batch: 8, DVFS: floor, TotalNanos: cfg.TotalNanos(floor, 8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for slot := 0; slot < board.Len(); slot++ {
			board.commit(slot, 0, issue, 0, 1<<40)
		}
		board.Redistribute(0, 0)
	}
	if board.Slot(0).Redistributes == 0 {
		b.Fatal("nothing was redistributed")
	}
}
