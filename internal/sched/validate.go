package sched

// Construction-time validation. A Config with a non-positive power budget
// or a degenerate DVFS table used to misbehave deep
// inside a run (every issue power-infeasible, candidate loops that never
// fire, divide-by-zero PPW scores); both engines now reject such configs
// when the system is built.

import "fmt"

// Validate checks the invariants every scheduling decision relies on:
// a compiled kernel, a positive power budget, a non-empty strictly
// ascending DVFS table, a positive operating point when DVFS scheduling is
// off, and a non-negative post-process time. It returns the first violation found.
func (c *Config) Validate() error {
	if c.Kernel == nil {
		return fmt.Errorf("sched: config carries no compiled kernel")
	}
	if c.PowerBudgetWatts <= 0 {
		return fmt.Errorf("sched: non-positive power budget %g W", c.PowerBudgetWatts)
	}
	table := c.Spec.DVFSTable()
	if len(table) == 0 {
		return fmt.Errorf("sched: empty DVFS frequency table")
	}
	for i := 1; i < len(table); i++ {
		if table[i].FreqGHz <= table[i-1].FreqGHz {
			return fmt.Errorf("sched: DVFS table not strictly ascending at %d (%.3f after %.3f GHz)",
				i, table[i].FreqGHz, table[i-1].FreqGHz)
		}
	}
	if !c.DVFSScheduling && c.StaticDVFS.FreqGHz <= 0 {
		return fmt.Errorf("sched: non-positive static DVFS frequency %g GHz", c.StaticDVFS.FreqGHz)
	}
	if c.PostProcessNanos < 0 {
		return fmt.Errorf("sched: negative post-process time %d ns", c.PostProcessNanos)
	}
	return nil
}
