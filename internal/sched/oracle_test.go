package sched

// The reference the Table is checked against: Algorithms 1 and 2 as the
// loops that evaluated the cost model per candidate per decision, copied
// verbatim from before the Table existed (three copies of Algorithm 1's
// enumeration and all). It lives only here; TestTableMatchesOracle compares
// every policy and both Algorithm 2 steps against it.

import "lighttrader/internal/cgra"

func oracleBatchOptions(c *Config) []int {
	if !c.WorkloadScheduling {
		return []int{1}
	}
	return DefaultBatchOptions()
}

func oracleDVFSOptions(c *Config) []cgra.DVFSState {
	if !c.DVFSScheduling {
		return []cgra.DVFSState{c.StaticDVFS}
	}
	return c.Spec.DVFSTable()
}

func oracleMinTotalNanos(c *Config) int64 {
	min := int64(-1)
	for _, d := range oracleDVFSOptions(c) {
		t := c.TotalNanos(d, 1)
		if min < 0 || t < min {
			min = t
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

func oraclePickIssueExplained(cfg *Config, queued int, availNanos int64, powerAvail float64, current cgra.DVFSState) (Issue, Verdict) {
	if queued <= 0 {
		return Issue{}, VerdictNoQueue
	}
	var best Issue
	bestScore := 0.0
	found := false
	deadlineOK := false
	overlap := cfg.Link.TransferNanos(cfg.Kernel.InputBytes)
	for _, d := range oracleDVFSOptions(cfg) {
		var sw int64
		if d != current {
			sw = cfg.Spec.DVFSSwitchNanos - overlap
			if sw < 0 {
				sw = 0
			}
		}
		for _, bs := range oracleBatchOptions(cfg) {
			if bs > queued {
				continue
			}
			tTotal := cfg.TotalNanos(d, bs) + sw
			if tTotal >= availNanos {
				continue
			}
			deadlineOK = true
			if cfg.BusyPower(d) >= powerAvail {
				continue
			}
			score := cfg.PPW(d, bs)
			if !found || score > bestScore {
				found = true
				bestScore = score
				best = Issue{Batch: bs, DVFS: d, SwitchNanos: sw, TotalNanos: tTotal}
			}
		}
	}
	switch {
	case found:
		return best, VerdictIssued
	case deadlineOK:
		return Issue{}, VerdictPowerInfeasible
	default:
		return Issue{}, VerdictDeadlineInfeasible
	}
}

func oracleDecideScored(cfg *Config, ctx SchedContext, maxBatch int,
	score func(d cgra.DVFSState, bs int, tTotal int64) float64) Decision {
	if ctx.Queued <= 0 {
		return Decision{Verdict: VerdictNoQueue}
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	var best Issue
	bestScore := 0.0
	found := false
	deadlineOK := false
	overlap := cfg.Link.TransferNanos(cfg.Kernel.InputBytes)
	for _, d := range oracleDVFSOptions(cfg) {
		var sw int64
		if d != ctx.Current {
			sw = cfg.Spec.DVFSSwitchNanos - overlap
			if sw < 0 {
				sw = 0
			}
		}
		for _, bs := range oracleBatchOptions(cfg) {
			if bs > ctx.Queued || bs > maxBatch {
				continue
			}
			tTotal := cfg.TotalNanos(d, bs) + sw
			if tTotal >= ctx.AvailNanos {
				continue
			}
			deadlineOK = true
			if cfg.BusyPower(d) >= ctx.PowerAvailWatts {
				continue
			}
			s := score(d, bs, tTotal)
			if !found || s > bestScore {
				found = true
				bestScore = s
				best = Issue{Batch: bs, DVFS: d, SwitchNanos: sw, TotalNanos: tTotal}
			}
		}
	}
	switch {
	case found:
		return Decision{Issue: best, Verdict: VerdictIssued}
	case deadlineOK:
		return Decision{Verdict: VerdictPowerInfeasible}
	default:
		return Decision{Verdict: VerdictDeadlineInfeasible}
	}
}

// oracleDecide is Decide of the registry policy name.
func oracleDecide(name string, cfg *Config, ctx SchedContext) Decision {
	byBatch := func(d cgra.DVFSState, bs int, tTotal int64) float64 {
		return float64(bs)*1e12 - float64(tTotal)
	}
	switch name {
	case "ppw":
		issue, v := oraclePickIssueExplained(cfg, ctx.Queued, ctx.AvailNanos, ctx.PowerAvailWatts, ctx.Current)
		return Decision{Issue: issue, Verdict: v}
	case "fcfs":
		return oracleDecideScored(cfg, ctx, 1, func(d cgra.DVFSState, bs int, tTotal int64) float64 {
			if d == ctx.Current {
				return 1
			}
			return -d.FreqGHz
		})
	case "greedy":
		return oracleDecideScored(cfg, ctx, ctx.Queued, byBatch)
	}
	panic("oracleDecide: no policy " + name)
}

func oracleSavePower(cfg *Config, busy []BusyAccel) []Change {
	var changes []Change
	table := cfg.Spec.DVFSTable()
	for _, a := range busy {
		best := a.DVFS
		for _, d := range table {
			if d.FreqGHz >= best.FreqGHz {
				break
			}
			extra := cfg.RetimedRemainingNanos(a.RemainingNanos, a.DVFS, d) - a.RemainingNanos
			if extra <= a.SlackNanos {
				best = d
				break
			}
		}
		if best != a.DVFS {
			changes = append(changes, Change{ID: a.ID, DVFS: best})
		}
	}
	return changes
}

func oracleRedistribute(cfg *Config, busy []BusyAccel, powerAvail float64) []Change {
	table := cfg.Spec.DVFSTable()
	state := make(map[int]cgra.DVFSState, len(busy))
	batch := make(map[int]int, len(busy))
	for _, a := range busy {
		state[a.ID] = a.DVFS
		batch[a.ID] = a.Batch
	}
	var changes []Change
	for {
		bestID := -1
		var bestState cgra.DVFSState
		bestInc := 0.0
		first := true
		for _, a := range busy {
			cur := state[a.ID]
			next, ok := oracleNextState(table, cur)
			if !ok {
				continue
			}
			powerInc := cfg.BusyPower(next) - cfg.BusyPower(cur)
			if powerInc > powerAvail+PowerEps {
				continue
			}
			ppwInc := cfg.PPW(next, batch[a.ID]) - cfg.PPW(cur, batch[a.ID])
			if first || ppwInc > bestInc {
				first = false
				bestInc = ppwInc
				bestID = a.ID
				bestState = next
			}
		}
		if bestID < 0 {
			return changes
		}
		powerAvail -= cfg.BusyPower(bestState) - cfg.BusyPower(state[bestID])
		state[bestID] = bestState
		replaced := false
		for i := range changes {
			if changes[i].ID == bestID {
				changes[i].DVFS = bestState
				replaced = true
				break
			}
		}
		if !replaced {
			changes = append(changes, Change{ID: bestID, DVFS: bestState})
		}
	}
}

func oracleNextState(table []cgra.DVFSState, cur cgra.DVFSState) (cgra.DVFSState, bool) {
	for _, d := range table {
		if d.FreqGHz > cur.FreqGHz+1e-9 {
			return d, true
		}
	}
	return cgra.DVFSState{}, false
}
