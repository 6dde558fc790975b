package sched

// The reference the Table is checked against: Algorithms 1 and 2 as the
// loops that evaluated the cost model per candidate per decision, copied
// verbatim from before the Table existed (three copies of Algorithm 1's
// enumeration and all). It lives only here; TestTableMatchesOracle compares
// every policy and both Algorithm 2 steps against it.

import (
	"math/rand"

	"lighttrader/internal/cgra"
)

func oracleBatchOptions(c *Config) []int {
	if !c.WorkloadScheduling {
		return []int{1}
	}
	if len(c.BatchOptions) == 0 {
		return DefaultBatchOptions()
	}
	return c.BatchOptions
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
			score := oracleIssueScore(cfg, d, bs, tTotal)
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

func oracleIssueScore(c *Config, d cgra.DVFSState, bs int, tTotal int64) float64 {
	switch c.IssuePolicy {
	case PolicyLatency:
		return -float64(tTotal)
	case PolicyThroughput:
		return float64(bs)*1e12 - float64(tTotal)
	default:
		return c.PPW(d, bs)
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

// oracleDecide is Decide of the stateless registry policy name.
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
	case "rr":
		idle := ctx.IdleAccels
		if idle < 1 {
			idle = 1
		}
		return oracleDecideScored(cfg, ctx, (ctx.Queued+idle-1)/idle, byBatch)
	case "sjf":
		return oracleDecideScored(cfg, ctx, ctx.Queued, func(d cgra.DVFSState, bs int, tTotal int64) float64 {
			return -float64(tTotal)
		})
	}
	panic("oracleDecide: no stateless policy " + name)
}

// oracleQ is the tabular learner over its private candidate ladder.
type oracleQ struct {
	cfg  *Config
	qcfg QConfig

	dvfs    []cgra.DVFSState
	batches []int
	actions int

	q      []float64
	visits []int

	training bool
	rng      *rand.Rand

	last struct {
		state, action int
		reward        float64
		valid         bool
	}

	minTotal int64
	topBusy  float64
}

func newOracleQ(cfg *Config, qcfg QConfig) *oracleQ {
	s := &oracleQ{
		cfg:     cfg,
		qcfg:    qcfg,
		dvfs:    oracleDVFSOptions(cfg),
		batches: oracleBatchOptions(cfg),
		rng:     rand.New(rand.NewSource(qcfg.Seed)),
	}
	s.actions = len(s.dvfs)*len(s.batches) + 1
	states := qcfg.QueueBuckets * qcfg.SlackBuckets * qcfg.PowerBuckets
	s.q = make([]float64, states*s.actions)
	s.visits = make([]int, states)
	s.minTotal = oracleMinTotalNanos(cfg)
	if s.minTotal < 1 {
		s.minTotal = 1
	}
	top := s.dvfs[len(s.dvfs)-1]
	s.topBusy = cfg.BusyPower(top)
	if s.topBusy <= 0 {
		s.topBusy = 1
	}
	return s
}

func (s *oracleQ) deferAction() int { return s.actions - 1 }

func (s *oracleQ) stateOf(ctx SchedContext) int {
	qb := bucketLog2(ctx.Queued, s.qcfg.QueueBuckets)
	slack := 0
	if ctx.AvailNanos > 0 {
		slack = int(ctx.AvailNanos / s.minTotal)
	}
	sb := bucketLog2(slack, s.qcfg.SlackBuckets)
	pw := 0
	if ctx.PowerAvailWatts > 0 {
		pw = int(ctx.PowerAvailWatts / s.topBusy)
	}
	if pw > s.qcfg.PowerBuckets-1 {
		pw = s.qcfg.PowerBuckets - 1
	}
	return (qb*s.qcfg.SlackBuckets+sb)*s.qcfg.PowerBuckets + pw
}

type oracleQCandidate struct {
	action int
	issue  Issue
}

func (s *oracleQ) feasible(ctx SchedContext) (cands []oracleQCandidate, deadlineOK bool) {
	overlap := s.cfg.Link.TransferNanos(s.cfg.Kernel.InputBytes)
	for di, d := range s.dvfs {
		var sw int64
		if d != ctx.Current {
			sw = s.cfg.Spec.DVFSSwitchNanos - overlap
			if sw < 0 {
				sw = 0
			}
		}
		for bi, bs := range s.batches {
			if bs > ctx.Queued {
				continue
			}
			tTotal := s.cfg.TotalNanos(d, bs) + sw
			if tTotal >= ctx.AvailNanos {
				continue
			}
			deadlineOK = true
			if s.cfg.BusyPower(d) >= ctx.PowerAvailWatts {
				continue
			}
			cands = append(cands, oracleQCandidate{
				action: di*len(s.batches) + bi,
				issue:  Issue{Batch: bs, DVFS: d, SwitchNanos: sw, TotalNanos: tTotal},
			})
		}
	}
	return cands, deadlineOK
}

func (s *oracleQ) maxQ(state int, cands []oracleQCandidate) float64 {
	if len(cands) == 0 {
		return s.q[state*s.actions+s.deferAction()]
	}
	best := s.q[state*s.actions+cands[0].action]
	for _, c := range cands[1:] {
		if v := s.q[state*s.actions+c.action]; v > best {
			best = v
		}
	}
	return best
}

func (s *oracleQ) update(nextState int, nextCands []oracleQCandidate) {
	if !s.last.valid {
		return
	}
	idx := s.last.state*s.actions + s.last.action
	target := s.last.reward + s.qcfg.Gamma*s.maxQ(nextState, nextCands)
	s.q[idx] += s.qcfg.Alpha * (target - s.q[idx])
	s.last.valid = false
}

func (s *oracleQ) EndEpisode() {
	if !s.last.valid {
		return
	}
	idx := s.last.state*s.actions + s.last.action
	s.q[idx] += s.qcfg.Alpha * (s.last.reward - s.q[idx])
	s.last.valid = false
}

func (s *oracleQ) Decide(ctx SchedContext) Decision {
	if ctx.Queued <= 0 {
		return Decision{Verdict: VerdictNoQueue}
	}
	state := s.stateOf(ctx)
	cands, deadlineOK := s.feasible(ctx)
	if s.training {
		s.update(state, cands)
		s.visits[state]++
	}
	if len(cands) == 0 {
		v := VerdictDeadlineInfeasible
		if deadlineOK {
			v = VerdictPowerInfeasible
		}
		if s.training {
			s.last.state = state
			s.last.action = s.deferAction()
			s.last.reward = -s.qcfg.MissPenalty
			s.last.valid = true
		}
		return Decision{Verdict: v}
	}
	pick := cands[0]
	if s.training && s.rng.Float64() < s.qcfg.Epsilon {
		pick = cands[s.rng.Intn(len(cands))]
	} else {
		bestQ := s.q[state*s.actions+pick.action]
		for _, c := range cands[1:] {
			if v := s.q[state*s.actions+c.action]; v > bestQ {
				bestQ = v
				pick = c
			}
		}
	}
	if s.training {
		s.last.state = state
		s.last.action = pick.action
		s.last.reward = float64(pick.issue.Batch)
		s.last.valid = true
	}
	return Decision{Issue: pick.issue, Verdict: VerdictIssued}
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
