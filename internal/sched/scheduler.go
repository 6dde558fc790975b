package sched

// The pluggable scheduling strategy seam. Both execution engines — the
// offline event simulator (internal/core) and the online serving lanes
// (internal/serve) — drive their accelerators through a Scheduler: the
// engine owns its queues, and its Board's admission step (Board.Admit) asks
// the strategy one question per idle accelerator: given what you can
// observe, what should this accelerator do now? Algorithm 1 (the paper's
// proactive PPW scheduler, the registry's "ppw" entry) is the default both
// engines resolve a nil Factory to; the baselines in policies.go and the
// learned scheduler in qlearn.go are the competitive yardstick the paper's
// headline claim is measured against.

import (
	"fmt"
	"sort"

	"lighttrader/internal/cgra"
	"lighttrader/internal/sim"
)

// SchedContext is the state one scheduling decision is made from: the view
// an engine exposes to a Scheduler when an accelerator is free to issue.
// Everything in it is observed, never owned — a Scheduler must not retain
// references into it across calls (Busy is reused by some engines).
type SchedContext struct {
	// NowNanos is the engine's current time (simulated or logical).
	NowNanos int64
	// Queued is the number of unscheduled input tensors waiting in the
	// offload queue feeding this accelerator.
	Queued int
	// AvailNanos is the remaining available time of the oldest queued
	// tensor: the deadline budget an issued batch must fit inside.
	AvailNanos int64
	// PowerAvailWatts is the unallocated share of the card power budget,
	// with the deciding accelerator's own draw excluded (it is about to
	// change state).
	PowerAvailWatts float64
	// Current is the deciding accelerator's present DVFS operating point;
	// issuing at a different point stalls for the switch delay.
	Current cgra.DVFSState
	// AccelID identifies the deciding accelerator (simulator accelerator
	// index or serving-lane id).
	AccelID int
	// IdleAccels is the number of accelerators currently able to take work,
	// including the deciding one (≥ 1). Fair-share policies split the
	// backlog across it; the serving runtime reports 1 because each lane
	// owns its own queue.
	IdleAccels int
	// Busy is the Board's view of the non-idle accelerators (Algorithm 2's
	// input); empty when nothing is busy.
	Busy []BusyAccel
}

// Decision is a Scheduler's answer for one idle accelerator: what to issue
// (batch size, target DVFS state, projected timing) and the explained
// verdict. Every policy picks through Table.pick, so the verdict taxonomy —
// and sim.Probe miss attribution — is identical across policies: engines
// issue on VerdictIssued, defer the oldest tensor on the infeasible
// verdicts, and do nothing on VerdictNoQueue.
type Decision struct {
	Issue   Issue
	Verdict Verdict
	// Tier names the model tier the issue was admitted against: 0 is the
	// engine's primary model; tier t > 0 is the t-th entry of its degrade
	// ladder (cheaper cost model). Non-zero only with
	// VerdictDegradedModel.
	Tier int
}

// Scheduler is a pluggable scheduling strategy. Implementations must be
// deterministic for a given construction (same contexts in, same decisions
// out — the byte-identical replay invariant of both engines) and must
// respect the hard feasibility invariants: never issue a candidate whose
// busy power exceeds PowerAvailWatts, and never issue a batch whose
// modelled finish (including any DVFS switch stall) violates AvailNanos.
// A Scheduler bound to one engine is only ever called from one goroutine
// at a time; the serving runtime builds one instance per lane.
type Scheduler interface {
	// Name identifies the policy (the -scheduler flag vocabulary).
	Name() string
	// Decide answers one idle-accelerator scheduling question.
	Decide(ctx SchedContext) Decision
}

// Factory builds a Scheduler bound to a Config. Engines call it once per
// accelerator set at Reset time, so stateful policies start every run
// fresh; a factory that returns a shared instance deliberately carries
// state across runs (the Q-learning trainer does).
type Factory func(cfg *Config) Scheduler

// PPWScheduler is the paper's proactive scheduler behind the strategy
// interface: Algorithm 1's joint (batch, DVFS) selection under deadline
// and power constraints, ranked by the configured issue objective (PPW by
// default). It is the default policy of both engines.
type PPWScheduler struct{ t *Table }

// NewPPWScheduler binds Algorithm 1 to cfg's profiled table.
func NewPPWScheduler(cfg *Config) *PPWScheduler { return &PPWScheduler{t: NewTable(cfg)} }

// Name implements Scheduler.
func (s *PPWScheduler) Name() string { return "ppw" }

// Decide implements Scheduler.
func (s *PPWScheduler) Decide(ctx SchedContext) Decision {
	return s.t.decide(ctx, ctx.Queued, s.t.objective)
}

// DeferCause maps a verdict onto the sim probe's miss-attribution taxonomy.
// It is the single source of the mapping for both engines (the simulator
// and the serving lanes previously carried one copy each).
func (v Verdict) DeferCause() sim.DeferCause {
	switch v {
	case VerdictDeadlineInfeasible:
		return sim.CauseDeadline
	case VerdictPowerInfeasible:
		return sim.CausePower
	default:
		return sim.CauseNone
	}
}

// factories is the policy registry behind the -scheduler flag and
// WithScheduler(ByName). Every entry must uphold the Scheduler invariants;
// the property tests in invariants_test.go run the whole registry.
var factories = map[string]Factory{
	"ppw":    func(cfg *Config) Scheduler { return NewPPWScheduler(cfg) },
	"fcfs":   func(cfg *Config) Scheduler { return NewFCFSScheduler(cfg) },
	"greedy": func(cfg *Config) Scheduler { return NewGreedyScheduler(cfg) },
	"rr":     func(cfg *Config) Scheduler { return NewRoundRobinScheduler(cfg) },
	"sjf":    func(cfg *Config) Scheduler { return NewSJFScheduler(cfg) },
	"qtable": func(cfg *Config) Scheduler { return NewQScheduler(cfg, DefaultQConfig()) },
}

// SchedulerNames returns the registered policy names, sorted.
func SchedulerNames() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FactoryByName resolves a registered policy name to its factory.
func FactoryByName(name string) (Factory, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (want one of %v)", name, SchedulerNames())
	}
	return f, nil
}
