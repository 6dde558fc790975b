package sched

// Property tests over the whole policy registry: every shipped strategy —
// the default PPW scheduler and the two baselines — and a test-local policy
// that ranks candidates by seeded random scores must uphold the hard
// Scheduler invariants on any context. `make ci` runs these under the race
// detector via the go test -race pass.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomPolicy hands Table.pick a seeded random score per (row, batch)
// candidate: an arbitrary objective, so the action mask, not the ranking,
// must guarantee feasibility.
type randomPolicy struct {
	t     *Table
	score []float64 // row-major over (state, batch)
}

func newRandomPolicy(cfg *Config, seed int64) *randomPolicy {
	p := &randomPolicy{t: NewTable(cfg)}
	rng := rand.New(rand.NewSource(seed))
	p.score = make([]float64, len(p.t.states)*len(p.t.batches))
	for i := range p.score {
		p.score[i] = rng.NormFloat64() * 100
	}
	return p
}

func (p *randomPolicy) Name() string { return "random" }

func (p *randomPolicy) Decide(ctx SchedContext) Decision {
	return p.t.decide(ctx, ctx.Queued, func(si, bi int, _ int64) float64 {
		return p.score[si*len(p.t.batches)+bi]
	})
}

// registrySchedulers builds one instance of every registered policy, plus a
// randomPolicy.
func registrySchedulers(t *testing.T, cfg *Config) []Scheduler {
	t.Helper()
	var out []Scheduler
	for _, name := range SchedulerNames() {
		f, err := FactoryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f(cfg))
	}
	return append(out, newRandomPolicy(cfg, 99))
}

// TestQuickPolicyInvariants fuzzes contexts across the registry and checks
// every issued decision satisfies the constraints it was given: batch within
// the queue, modelled finish strictly inside the available time, busy power
// strictly inside the available power, and an Issue consistent with the
// verdict. Deferred decisions must carry the attributing verdict.
func TestQuickPolicyInvariants(t *testing.T) {
	cfg := testConfig(t, true, true)
	scheds := registrySchedulers(t, cfg)
	table := cfg.Spec.DVFSTable()
	f := func(queued uint8, availMicros uint16, powerCenti uint16, stateIdx uint8) bool {
		ctx := SchedContext{
			Queued:          int(queued % 40),
			AvailNanos:      int64(availMicros) * 1000,
			PowerAvailWatts: float64(powerCenti) / 100, // 0..655 W
			Current:         table[int(stateIdx)%len(table)],
		}
		for _, s := range scheds {
			dec := s.Decide(ctx)
			switch dec.Verdict {
			case VerdictIssued:
				if dec.Issue.Batch < 1 || dec.Issue.Batch > ctx.Queued {
					t.Logf("%s: batch %d outside queue %d", s.Name(), dec.Issue.Batch, ctx.Queued)
					return false
				}
				if dec.Issue.TotalNanos >= ctx.AvailNanos {
					t.Logf("%s: issue %d ns misses avail %d ns", s.Name(), dec.Issue.TotalNanos, ctx.AvailNanos)
					return false
				}
				if cfg.BusyPower(dec.Issue.DVFS) >= ctx.PowerAvailWatts {
					t.Logf("%s: busy power %v W over avail %v W", s.Name(),
						cfg.BusyPower(dec.Issue.DVFS), ctx.PowerAvailWatts)
					return false
				}
				if dec.Issue.DVFS != ctx.Current && dec.Issue.SwitchNanos == 0 &&
					cfg.Spec.DVFSSwitchNanos > cfg.Link.TransferNanos(cfg.Kernel.InputBytes) {
					t.Logf("%s: state change without switch stall", s.Name())
					return false
				}
			case VerdictNoQueue:
				if ctx.Queued != 0 {
					t.Logf("%s: no-queue with %d queued", s.Name(), ctx.Queued)
					return false
				}
			case VerdictDeadlineInfeasible, VerdictPowerInfeasible:
				if ctx.Queued == 0 {
					t.Logf("%s: defer verdict on empty queue", s.Name())
					return false
				}
				if dec.Issue != (Issue{}) {
					t.Logf("%s: deferred with non-zero issue %+v", s.Name(), dec.Issue)
					return false
				}
			default:
				t.Logf("%s: unknown verdict %v", s.Name(), dec.Verdict)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPolicyNeverMissesFeasibleWork: t_total is monotone in batch size
// and busy power is batch-independent, so a batch-1 candidate is feasible
// whenever any candidate is. Every restricted policy must therefore issue
// whenever the full candidate space has a feasible option — no policy may
// invent a miss Algorithm 1 would not have taken.
func TestQuickPolicyNeverMissesFeasibleWork(t *testing.T) {
	cfg := testConfig(t, true, true)
	scheds := registrySchedulers(t, cfg)
	table := cfg.Spec.DVFSTable()
	f := func(queued uint8, availMicros uint16, powerCenti uint16, stateIdx uint8) bool {
		ctx := SchedContext{
			Queued:          int(queued%40) + 1,
			AvailNanos:      int64(availMicros) * 1000,
			PowerAvailWatts: float64(powerCenti) / 100,
			Current:         table[int(stateIdx)%len(table)],
		}
		_, want := PickIssueExplained(cfg, ctx.Queued, ctx.AvailNanos, ctx.PowerAvailWatts, ctx.Current)
		for _, s := range scheds {
			dec := s.Decide(ctx)
			if (want == VerdictIssued) != (dec.Verdict == VerdictIssued) {
				t.Logf("%s: verdict %v but Algorithm 1 says %v (ctx %+v)", s.Name(), dec.Verdict, want, ctx)
				return false
			}
			// When both defer, the attribution must agree: the feasibility
			// space (before ranking) is identical across policies.
			if want != VerdictIssued && dec.Verdict != want {
				t.Logf("%s: defer cause %v, want %v", s.Name(), dec.Verdict, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyDeterminism: a frozen policy is a pure function of the context —
// repeated Decide calls on the same context return the same decision.
func TestPolicyDeterminism(t *testing.T) {
	cfg := testConfig(t, true, true)
	for _, s := range registrySchedulers(t, cfg) {
		ctx := SchedContext{
			Queued: 9, AvailNanos: 5_000_000, PowerAvailWatts: 20,
			Current: cfg.Spec.DVFSTable()[0],
		}
		first := s.Decide(ctx)
		for i := 0; i < 10; i++ {
			if got := s.Decide(ctx); got != first {
				t.Fatalf("%s: decision changed on repeat: %+v then %+v", s.Name(), first, got)
			}
		}
	}
}
