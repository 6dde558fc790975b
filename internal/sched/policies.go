package sched

// Baseline scheduling policies: the two naive strategies the paper's
// proactive scheduler claims to beat. Both pick through Algorithm 1's one
// candidate enumeration, Table.pick (the same deadline and power
// feasibility tests, the same WS/DS feature switches, the same switch-stall
// overlap model), and differ only in the score they hand it — so the
// comparison in internal/bench isolates the ranking objective, not the
// safety checks, and every policy upholds the hard invariants by
// construction.

// FCFSScheduler serves queries strictly in arrival order, one per issue:
// no batching, no objective — the oldest query runs as soon as an
// accelerator is free, at the accelerator's current operating point when
// that is feasible (no switch stall), otherwise at the slowest feasible
// state. It is the queueing-theory null hypothesis the paper's workload
// scheduling is measured against.
type FCFSScheduler struct{ t *Table }

// NewFCFSScheduler builds the FCFS baseline over cfg.
func NewFCFSScheduler(cfg *Config) *FCFSScheduler { return &FCFSScheduler{t: NewTable(cfg)} }

// Name implements Scheduler.
func (s *FCFSScheduler) Name() string { return "fcfs" }

// Decide implements Scheduler.
func (s *FCFSScheduler) Decide(ctx SchedContext) Decision {
	return s.t.decide(ctx, 1, func(si, _ int, _ int64) float64 {
		if d := s.t.states[si]; d != ctx.Current {
			return -d.FreqGHz // the slowest feasible state
		}
		return 1 // stay put: no switch stall
	})
}

// GreedyScheduler always issues the largest feasible batch, breaking ties
// by the fastest completion. It maximises instantaneous throughput with no
// regard for power efficiency — the "just batch everything" strawman.
type GreedyScheduler struct{ t *Table }

// NewGreedyScheduler builds the greedy max-batch baseline over cfg.
func NewGreedyScheduler(cfg *Config) *GreedyScheduler { return &GreedyScheduler{t: NewTable(cfg)} }

// Name implements Scheduler.
func (s *GreedyScheduler) Name() string { return "greedy" }

// Decide implements Scheduler.
func (s *GreedyScheduler) Decide(ctx SchedContext) Decision {
	return s.t.decide(ctx, ctx.Queued, s.t.byBatch)
}
