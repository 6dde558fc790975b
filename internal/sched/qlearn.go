package sched

// A tabular Q-learning scheduler: the learned-policy yardstick the ROADMAP
// asks for. The agent observes a coarse discretisation of the scheduling
// state (bucketed queue depth × deadline slack × available power), its
// actions are Algorithm 1's own (dvfs, batch) candidates plus the forced
// defer, and the reward is response-rate shaped: +batch for every issued
// query (feasible by construction, so it will meet its deadline in the
// modelled engines) and a miss penalty for every defer. Infeasible actions
// are masked at decision time, so the learned policy upholds the same hard
// invariants as every other policy regardless of what its table says.
//
// Training runs against the deterministic simulator (internal/bench owns
// the loop: build a System whose Factory returns one shared QScheduler in
// training mode, replay seeded traces for a few episodes, freeze). All
// randomness comes from the seeded exploration source, so training is
// exactly reproducible.

import "math/rand"

// QConfig parameterises the tabular learner.
type QConfig struct {
	// QueueBuckets, SlackBuckets and PowerBuckets size the state
	// discretisation (log₂ queue depth × log₂ deadline-slack ratio ×
	// top-state power headroom).
	QueueBuckets, SlackBuckets, PowerBuckets int
	// Alpha is the learning rate, Gamma the discount, Epsilon the
	// ε-greedy exploration rate while training.
	Alpha, Gamma, Epsilon float64
	// MissPenalty is the negative reward per deferred query.
	MissPenalty float64
	// Seed drives the exploration source; training is reproducible per seed.
	Seed int64
}

// DefaultQConfig returns the configuration the bench yardstick trains with.
func DefaultQConfig() QConfig {
	return QConfig{
		QueueBuckets: 6, SlackBuckets: 6, PowerBuckets: 5,
		Alpha: 0.2, Gamma: 0.9, Epsilon: 0.1,
		MissPenalty: 4,
		Seed:        1,
	}
}

// QScheduler is the tabular Q-learning policy. A freshly built instance
// (zero table, training off) degenerates to "first feasible candidate in
// table order"; call Train via the bench harness to give it a policy. A
// frozen (non-training) instance is read-only in Decide and therefore safe
// to share across serving lanes.
type QScheduler struct {
	t    *Table
	qcfg QConfig

	actions int // one issue action per selectable (state, batch) of t + 1 defer action

	q      []float64 // state-major: q[state*actions+action]
	visits []int

	training bool
	rng      *rand.Rand

	// last is the pending transition awaiting its successor state for the Q
	// update.
	last transition
}

// transition is one (state, action, reward) step of the learner.
type transition struct {
	state, action int
	reward        float64
	valid         bool
}

// NewQScheduler builds a Q-table policy bound to cfg. The action space is
// cfg's own candidate ladder, so a table trained for one Config only
// applies to that Config.
func NewQScheduler(cfg *Config, qcfg QConfig) *QScheduler {
	s := &QScheduler{
		t:    NewTable(cfg),
		qcfg: qcfg,
		rng:  rand.New(rand.NewSource(qcfg.Seed)),
	}
	s.actions = (len(s.t.states)-s.t.first)*len(s.t.batches) + 1
	states := qcfg.QueueBuckets * qcfg.SlackBuckets * qcfg.PowerBuckets
	s.q = make([]float64, states*s.actions)
	s.visits = make([]int, states)
	return s
}

// Name implements Scheduler.
func (s *QScheduler) Name() string { return "qtable" }

// SetTraining switches ε-greedy exploration and Q updates on or off.
func (s *QScheduler) SetTraining(on bool) {
	s.training = on
	if !on {
		s.last.valid = false
	}
}

// StatesVisited reports how many discrete states have been acted from —
// a coverage signal for the training loop.
func (s *QScheduler) StatesVisited() int {
	n := 0
	for _, v := range s.visits {
		if v > 0 {
			n++
		}
	}
	return n
}

// deferAction is the forced action index when no candidate is feasible.
func (s *QScheduler) deferAction() int { return s.actions - 1 }

// bucketLog2 maps v ≥ 0 onto one of n log₂-spaced buckets.
func bucketLog2(v, n int) int {
	b := 0
	for v > 1 && b < n-1 {
		v >>= 1
		b++
	}
	return b
}

// stateOf discretises a context: slack in units of the table's latency
// floor, power headroom in units of the top selectable state's busy draw.
func (s *QScheduler) stateOf(ctx SchedContext) int {
	qb := bucketLog2(ctx.Queued, s.qcfg.QueueBuckets)
	slack := 0
	if ctx.AvailNanos > 0 {
		slack = int(ctx.AvailNanos / max(s.t.MinTotalNanos(), 1))
	}
	sb := bucketLog2(slack, s.qcfg.SlackBuckets)
	pw := 0
	if ctx.PowerAvailWatts > 0 {
		top := s.t.busy[len(s.t.busy)-1]
		if top <= 0 {
			top = 1
		}
		pw = int(ctx.PowerAvailWatts / top)
	}
	if pw > s.qcfg.PowerBuckets-1 {
		pw = s.qcfg.PowerBuckets - 1
	}
	return (qb*s.qcfg.SlackBuckets+sb)*s.qcfg.PowerBuckets + pw
}

// action is the Q-table column of issue candidate (si, bi).
func (s *QScheduler) action(si, bi int) int { return (si-s.t.first)*len(s.t.batches) + bi }

// greedy is the highest-valued action of the masked set at (state, ctx):
// Table.pick with the Q-table as the score.
func (s *QScheduler) greedy(state int, ctx SchedContext) (si, bi int, v Verdict) {
	return s.t.pick(ctx, ctx.Queued, func(si, bi int, _ int64) float64 {
		return s.q[state*s.actions+s.action(si, bi)]
	})
}

// learn applies the pending transition's Q update, bootstrapping from the
// best masked action at the successor (state, ctx).
func (s *QScheduler) learn(state int, ctx SchedContext) {
	if !s.last.valid {
		return
	}
	next := s.deferAction()
	if si, bi, v := s.greedy(state, ctx); v == VerdictIssued {
		next = s.action(si, bi)
	}
	idx := s.last.state*s.actions + s.last.action
	target := s.last.reward + s.qcfg.Gamma*s.q[state*s.actions+next]
	s.q[idx] += s.qcfg.Alpha * (target - s.q[idx])
	s.last.valid = false
}

// EndEpisode flushes the pending transition with no successor (terminal
// bootstrap of zero). Call between training episodes.
func (s *QScheduler) EndEpisode() {
	if !s.last.valid {
		return
	}
	idx := s.last.state*s.actions + s.last.action
	s.q[idx] += s.qcfg.Alpha * (s.last.reward - s.q[idx])
	s.last.valid = false
}

// explore draws one of ctx's feasible candidates uniformly: one walk of the
// action mask counts them, a second scores only the drawn one.
func (s *QScheduler) explore(ctx SchedContext) (si, bi int) {
	n := 0
	s.t.pick(ctx, ctx.Queued, func(int, int, int64) float64 { n++; return 0 })
	k := s.rng.Intn(n)
	si, bi, _ = s.t.pick(ctx, ctx.Queued, func(int, int, int64) float64 {
		if k--; k == -1 {
			return 1
		}
		return 0
	})
	return si, bi
}

// Decide implements Scheduler: mask infeasible actions, act greedily on the
// table (ε-greedy while training), and learn from the reward stream.
func (s *QScheduler) Decide(ctx SchedContext) Decision {
	if ctx.Queued <= 0 {
		return Decision{Verdict: VerdictNoQueue}
	}
	state := s.stateOf(ctx)
	if s.training {
		s.learn(state, ctx)
		s.visits[state]++
	}
	si, bi, v := s.greedy(state, ctx)
	if v != VerdictIssued {
		if s.training {
			s.last = transition{state, s.deferAction(), -s.qcfg.MissPenalty, true}
		}
		return Decision{Verdict: v}
	}
	if s.training && s.rng.Float64() < s.qcfg.Epsilon {
		si, bi = s.explore(ctx)
	}
	issue := s.t.issue(si, bi, ctx.Current)
	if s.training {
		s.last = transition{state, s.action(si, bi), float64(issue.Batch), true}
	}
	return Decision{Issue: issue, Verdict: VerdictIssued}
}
