package sched

import "lighttrader/internal/cgra"

// Table is the paper's profiled latency/power table (§III-D: the scheduler
// decides from per-(model, batch, DVFS) tick-to-trade and power profiles):
// every quantity Algorithms 1 and 2 read, evaluated once from a Config's
// cost models — Config.TotalNanos, BusyPower and PPW stay the definitions
// it is filled from — so that a decision is a scan of precomputed numbers
// and never a walk of the compiled kernel.
//
// A Table is built wherever a Config is bound to a long-lived object: every
// policy constructor and NewBoard. It is a snapshot — it is not cached in
// the Config, which callers copy by value and edit between uses, so a
// Config changed after the build needs a new Table. A Table is read-only
// after NewTable and safe to share.
type Table struct {
	cfg *Config
	// states are the table's rows: the DVFS grid, lowest first — the states
	// Algorithm 2 climbs — and, without DVFS scheduling, one more row for the
	// static operating point. Algorithm 1 selects among rows [first, len).
	states      []cgra.DVFSState
	grid, first int
	// batches is the ladder Algorithm 1 may issue ({1} without workload
	// scheduling); total and ppw are row-major over (state, batch).
	batches []int
	total   []int64
	ppw     []float64
	busy    []float64 // watts per row while executing the kernel
	// stall is what an at-issue state switch delays the start by. The
	// PMIC/PLL transition overlaps the C2C input DMA: the supply ramps while
	// the feature map streams in, so only the excess stalls.
	stall    int64
	minTotal int64 // see MinTotalNanos
}

// NewTable profiles cfg.
func NewTable(cfg *Config) *Table {
	t := &Table{cfg: cfg, states: cfg.Spec.DVFSTable(), batches: []int{1}}
	t.grid = len(t.states)
	if !cfg.DVFSScheduling {
		t.first = t.grid
		t.states = append(t.states, cfg.StaticDVFS)
	}
	if cfg.WorkloadScheduling {
		t.batches = cfg.BatchOptions
		if len(t.batches) == 0 {
			t.batches = DefaultBatchOptions()
		}
	}
	nb := len(t.batches)
	t.total = make([]int64, len(t.states)*nb)
	t.ppw = make([]float64, len(t.states)*nb)
	t.busy = make([]float64, len(t.states))
	for si, d := range t.states {
		t.busy[si] = cfg.BusyPower(d)
		for bi, bs := range t.batches {
			t.total[si*nb+bi] = cfg.TotalNanos(d, bs)
			t.ppw[si*nb+bi] = ppw(t.total[si*nb+bi], t.busy[si], bs)
		}
	}
	for si := t.first; si < len(t.states); si++ {
		one := t.total[si*nb]
		if t.batches[0] != 1 { // a custom ladder need not start at batch 1
			one = cfg.TotalNanos(t.states[si], 1)
		}
		if si == t.first || one < t.minTotal {
			t.minTotal = one
		}
	}
	if t.stall = cfg.Spec.DVFSSwitchNanos - cfg.Link.TransferNanos(cfg.Kernel.InputBytes); t.stall < 0 {
		t.stall = 0
	}
	return t
}

// row finds d among the table's states; −1 when d is off the table.
func (t *Table) row(d cgra.DVFSState) int {
	for si, s := range t.states {
		if s == d {
			return si
		}
	}
	return -1
}

// busyPower is Config.BusyPower read from the table; a state off the table
// falls back to the definition.
func (t *Table) busyPower(d cgra.DVFSState) float64 {
	if si := t.row(d); si >= 0 {
		return t.busy[si]
	}
	return t.cfg.BusyPower(d)
}

// MinTotalNanos is the fastest achievable batch-1 t_total across the states
// Algorithm 1 may use — the floor of the latency table. An online
// dispatcher uses it as the hold budget: once a queued query's remaining
// time falls to this floor (plus a worst-case switch stall), waiting for
// more arrivals to form a larger batch is no longer safe.
func (t *Table) MinTotalNanos() int64 { return t.minTotal }

// A scoreFunc ranks one feasible candidate of Algorithm 1 — row si, ladder
// entry bi, projected t_total including the switch stall; higher is better.
type scoreFunc func(si, bi int, tTotal int64) float64

// byLatency prefers the fastest completion.
func byLatency(_, _ int, tTotal int64) float64 { return -float64(tTotal) }

// byBatch prefers the largest batch; faster completion breaks ties.
func (t *Table) byBatch(_, bi int, tTotal int64) float64 {
	return float64(t.batches[bi])*1e12 - float64(tTotal)
}

// objective scores by the Config's issue policy — by default the paper's
// PPW, batch/(latency·power).
func (t *Table) objective(si, bi int, tTotal int64) float64 {
	switch t.cfg.IssuePolicy {
	case PolicyLatency:
		return byLatency(si, bi, tTotal)
	case PolicyThroughput:
		return t.byBatch(si, bi, tTotal)
	default:
		return t.ppw[si*len(t.batches)+bi]
	}
}

// pick is Algorithm 1's candidate enumeration, the only one: it walks the
// selectable (state, batch) pairs in table order — ascending state, then
// ascending batch — keeps those no larger than the queue and maxBatch whose
// t_total (plus the switch stall when the state differs from ctx.Current)
// is strictly inside ctx.AvailNanos and whose busy power is strictly inside
// ctx.PowerAvailWatts, and returns the highest-scoring one; ties keep the
// first in table order, which makes every policy built on it deterministic.
//
// When candidate_queue ends empty the verdict attributes the failure:
// power-infeasible when some candidate met the deadline but the budget
// blocked it, deadline-infeasible when none was fast enough. The engine
// then defers the oldest tensor to the conventional pipeline.
func (t *Table) pick(ctx SchedContext, maxBatch int, score scoreFunc) (si, bi int, v Verdict) {
	if ctx.Queued <= 0 {
		return 0, 0, VerdictNoQueue
	}
	maxBatch = min(max(maxBatch, 1), ctx.Queued)
	nb := len(t.batches)
	v = VerdictDeadlineInfeasible
	bestScore := 0.0
	for s := t.first; s < len(t.states); s++ {
		sw := t.switchNanos(s, ctx.Current)
		powerOK := t.busy[s] < ctx.PowerAvailWatts
		for b, bs := range t.batches {
			tTotal := t.total[s*nb+b] + sw
			if bs > maxBatch || tTotal >= ctx.AvailNanos {
				continue
			}
			if !powerOK {
				if v == VerdictDeadlineInfeasible {
					v = VerdictPowerInfeasible // fast enough, but the budget blocks it
				}
				continue
			}
			if sc := score(s, b, tTotal); v != VerdictIssued || sc > bestScore {
				v, bestScore, si, bi = VerdictIssued, sc, s, b
			}
		}
	}
	return si, bi, v
}

// switchNanos is the stall an issue at row si pays from state current.
func (t *Table) switchNanos(si int, current cgra.DVFSState) int64 {
	if t.states[si] != current {
		return t.stall
	}
	return 0
}

// issue spells out candidate (si, bi) for an accelerator now at current.
func (t *Table) issue(si, bi int, current cgra.DVFSState) Issue {
	sw := t.switchNanos(si, current)
	return Issue{
		Batch: t.batches[bi], DVFS: t.states[si],
		SwitchNanos: sw, TotalNanos: t.total[si*len(t.batches)+bi] + sw,
	}
}

// decide answers one scheduling question with the best candidate under
// score among batches ≤ maxBatch.
func (t *Table) decide(ctx SchedContext, maxBatch int, score scoreFunc) Decision {
	si, bi, v := t.pick(ctx, maxBatch, score)
	if v != VerdictIssued {
		return Decision{Verdict: v}
	}
	return Decision{Issue: t.issue(si, bi, ctx.Current), Verdict: v}
}

// savePower is the first step of DVFS scheduling: scale each busy
// accelerator down to the slowest state that still meets its in-flight
// deadline, freeing budget before a new issue. Lowering the state stretches
// the remaining time by the frequency ratio and stalls for the switch
// delay, both of which must fit in the accelerator's slack. The changes are
// appended to dst.
func (t *Table) savePower(dst []Change, busy []BusyAccel) []Change {
	for _, a := range busy {
		for _, d := range t.states[:t.grid] {
			if d.FreqGHz >= a.DVFS.FreqGHz {
				break // the grid ascends; only states below current save power
			}
			extra := t.cfg.RetimedRemainingNanos(a.RemainingNanos, a.DVFS, d) - a.RemainingNanos
			// A scale-down may consume the slack exactly: the stretched batch
			// then completes at its deadline, which still counts as on time.
			if extra <= a.SlackNanos {
				dst = append(dst, Change{ID: a.ID, DVFS: d})
				break // lowest feasible state
			}
		}
	}
	return dst
}

// climb is redistribute's cursor for one busy accelerator.
type climb struct {
	// next is the grid row one step above the accelerator's present state,
	// bi its batch's ladder index (−1 off the ladder), change its entry in
	// the output (−1 before its first upgrade).
	next, bi, change int
	watts, ppw       float64 // busy draw and PPW at the present state
}

// ppwAt is the PPW at row si of a batch at ladder index bi or, off the
// ladder (bi < 0), of the given size.
func (t *Table) ppwAt(si, bi, batch int) float64 {
	if bi < 0 {
		return t.cfg.PPW(t.states[si], batch)
	}
	return t.ppw[si*len(t.batches)+bi]
}

// redistribute implements Algorithm 2: while unallocated power remains,
// raise the DVFS state of the busy accelerator whose upgrade yields the
// highest marginal PPW change (ppw_inc), fully consuming the constrained
// power to minimise the miss rate under bursty traffic. The changes — one
// per upgraded accelerator, in order of first upgrade — are appended to dst.
// A present state off the table or a batch off the ladder is priced by the
// Config's definitions.
func (t *Table) redistribute(dst []Change, busy []BusyAccel, powerAvail float64) []Change {
	var buf [16]climb // the paper's largest array; more accelerators spill to the heap
	at := buf[:0]
	for _, a := range busy {
		c := climb{bi: -1, change: -1}
		for bi, bs := range t.batches {
			if bs == a.Batch {
				c.bi = bi
				break
			}
		}
		if si := t.row(a.DVFS); si >= 0 {
			c.watts, c.ppw = t.busy[si], t.ppwAt(si, c.bi, a.Batch)
		} else {
			c.watts, c.ppw = t.cfg.BusyPower(a.DVFS), t.cfg.PPW(a.DVFS, a.Batch)
		}
		for c.next < t.grid && t.states[c.next].FreqGHz <= a.DVFS.FreqGHz+1e-9 {
			c.next++
		}
		at = append(at, c)
	}
	for {
		best := -1
		var bestInc, bestPPW float64
		for i := range at {
			c := &at[i]
			if c.next >= t.grid {
				continue
			}
			// An upgrade may consume the remaining budget exactly (to within
			// float tolerance): "fully consuming the constrained power" is the
			// algorithm's contract, so only a strict overshoot is rejected.
			if t.busy[c.next]-c.watts > powerAvail+PowerEps {
				continue
			}
			next := t.ppwAt(c.next, c.bi, busy[i].Batch)
			if inc := next - c.ppw; best < 0 || inc > bestInc {
				best, bestInc, bestPPW = i, inc, next
			}
		}
		if best < 0 {
			return dst
		}
		c := &at[best]
		powerAvail -= t.busy[c.next] - c.watts
		// Successive upgrades of one accelerator coalesce into one change.
		if c.change < 0 {
			c.change = len(dst)
			dst = append(dst, Change{ID: busy[best].ID})
		}
		dst[c.change].DVFS = t.states[c.next]
		c.watts, c.ppw = t.busy[c.next], bestPPW
		c.next++
	}
}
