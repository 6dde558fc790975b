package sched

// Property tests for the model-degrade ladder over the whole policy
// registry: wrapping any shipped strategy in a DegradingScheduler must
// never violate the degrade invariants — a full-model-feasible context is
// never degraded, a degraded issue respects the tier's own deadline and
// power constraints, and the ladder never turns one admission question into
// two issues. `make ci` runs these under the race detector.

import (
	"testing"
	"testing/quick"

	"lighttrader/internal/c2c"
	"lighttrader/internal/cgra"
	"lighttrader/internal/compile"
	"lighttrader/internal/nn"
)

// DegradingScheduler wraps a base policy with a degrade ladder: the base
// decides first against the primary model; only when it reports the oldest
// query deadline- or power-infeasible does the ladder get a say, and the
// first tier whose own admission succeeds issues with
// VerdictDegradedModel/Decision.Tier set. A full-model-feasible query is
// therefore never degraded, and VerdictNoQueue passes straight through.
//
// It is the ladder rule composed in its plainest form, for the property
// tests below. No engine runs one: Board.Admit applies degradable and
// degrade itself, with Algorithm 2's power-saving retry between the base
// decision and the ladder.
type DegradingScheduler struct {
	base  Scheduler
	tiers []Scheduler
}

// NewDegradingScheduler wraps base with the ladder.
func NewDegradingScheduler(base Scheduler, tiers []Scheduler) *DegradingScheduler {
	return &DegradingScheduler{base: base, tiers: tiers}
}

// Name implements Scheduler.
func (d *DegradingScheduler) Name() string { return d.base.Name() + "+degrade" }

// Decide implements Scheduler.
func (d *DegradingScheduler) Decide(ctx SchedContext) Decision {
	dec := d.base.Decide(ctx)
	if !degradable(dec.Verdict) {
		return dec
	}
	if alt, ok := degrade(d.tiers, ctx); ok {
		return alt
	}
	return dec
}

// degradeTierConfigs compiles two cost-descending cheaper models onto the
// same accelerator spec and power budget as testConfig's primary.
func degradeTierConfigs(t *testing.T, ws, ds bool) []*Config {
	t.Helper()
	spec := cgra.DefaultSpec()
	var out []*Config
	for _, m := range []*nn.Model{
		nn.NewSizedCNN("degrade-t1", 16, 0),
		nn.NewSizedCNN("degrade-t2", 8, 0),
	} {
		k, err := compile.Compile(m, spec)
		if err != nil {
			t.Fatal(err)
		}
		static, _ := StaticDVFSFor(spec, k, 1, 55)
		out = append(out, &Config{
			Spec: spec, Kernel: k, Link: c2c.CustomC2C(),
			WorkloadScheduling: ws, DVFSScheduling: ds,
			StaticDVFS: static, PowerBudgetWatts: 55, PostProcessNanos: 310,
		})
	}
	return out
}

// TestQuickDegradeInvariants fuzzes contexts across every registry policy
// wrapped in a DegradingScheduler and checks the degrade invariants:
//
//  1. Never degrade feasible work: when the base policy issues, the wrapped
//     decision is exactly the base decision, Tier 0.
//  2. A plain VerdictIssued is always the base's own issue (a ladder issue
//     must be labelled VerdictDegradedModel — no double-issue, so engines
//     account each admission exactly once).
//  3. A degraded issue opens only from a degradable base verdict (deadline-
//     or power-infeasible; VerdictNoQueue passes through) and respects the
//     issuing tier's OWN constraints: batch within the queue, modelled
//     finish strictly inside the available time, busy power strictly inside
//     the available power on the tier's cost model.
//  4. A wrapped defer means no rung could issue either: re-asking every
//     tier scheduler (policies are deterministic per TestPolicyDeterminism)
//     must reproduce the refusal.
func TestQuickDegradeInvariants(t *testing.T) {
	cfg := testConfig(t, true, true)
	tierCfgs := degradeTierConfigs(t, true, true)
	table := cfg.Spec.DVFSTable()

	type wrapped struct {
		s     *DegradingScheduler
		base  Scheduler
		tiers []Scheduler
	}
	var scheds []wrapped
	for _, name := range SchedulerNames() {
		f, err := FactoryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base := f(cfg)
		tiers := NewModelTiers(f, tierCfgs)
		scheds = append(scheds, wrapped{NewDegradingScheduler(base, tiers), base, tiers})
		if want := name + "+degrade"; scheds[len(scheds)-1].s.Name() != want {
			t.Fatalf("wrapped name = %q, want %q", scheds[len(scheds)-1].s.Name(), want)
		}
	}

	f := func(queued uint8, availMicros uint16, powerCenti uint16, stateIdx uint8) bool {
		ctx := SchedContext{
			Queued:          int(queued % 40),
			AvailNanos:      int64(availMicros) * 1000,
			PowerAvailWatts: float64(powerCenti) / 100, // 0..655 W
			Current:         table[int(stateIdx)%len(table)],
		}
		for _, w := range scheds {
			dec := w.s.Decide(ctx)
			base := w.base.Decide(ctx)
			switch dec.Verdict {
			case VerdictIssued, VerdictNoQueue:
				if dec != base {
					t.Logf("%s: non-degrade decision %+v differs from base %+v", w.s.Name(), dec, base)
					return false
				}
				if dec.Tier != 0 {
					t.Logf("%s: tier %d on verdict %v", w.s.Name(), dec.Tier, dec.Verdict)
					return false
				}
			case VerdictDegradedModel:
				if !degradable(base.Verdict) {
					t.Logf("%s: degraded from non-degradable base verdict %v", w.s.Name(), base.Verdict)
					return false
				}
				if dec.Tier < 1 || dec.Tier > len(w.tiers) {
					t.Logf("%s: tier %d outside ladder of %d", w.s.Name(), dec.Tier, len(w.tiers))
					return false
				}
				tcfg := tierCfgs[dec.Tier-1]
				if dec.Issue.Batch < 1 || dec.Issue.Batch > ctx.Queued {
					t.Logf("%s: degraded batch %d outside queue %d", w.s.Name(), dec.Issue.Batch, ctx.Queued)
					return false
				}
				if dec.Issue.TotalNanos >= ctx.AvailNanos {
					t.Logf("%s: degraded issue %d ns misses avail %d ns", w.s.Name(),
						dec.Issue.TotalNanos, ctx.AvailNanos)
					return false
				}
				if tcfg.BusyPower(dec.Issue.DVFS) >= ctx.PowerAvailWatts {
					t.Logf("%s: degraded busy power %v W over avail %v W", w.s.Name(),
						tcfg.BusyPower(dec.Issue.DVFS), ctx.PowerAvailWatts)
					return false
				}
				// First-fit: every rung above the issuing one must refuse.
				for i := 0; i < dec.Tier-1; i++ {
					if alt := w.tiers[i].Decide(ctx); alt.Verdict == VerdictIssued {
						t.Logf("%s: tier %d issued but ladder picked tier %d", w.s.Name(), i+1, dec.Tier)
						return false
					}
				}
			case VerdictDeadlineInfeasible, VerdictPowerInfeasible:
				if dec != base {
					t.Logf("%s: defer %+v differs from base %+v", w.s.Name(), dec, base)
					return false
				}
				for i, tier := range w.tiers {
					if alt := tier.Decide(ctx); alt.Verdict == VerdictIssued {
						t.Logf("%s: deferred but tier %d had a feasible issue %+v", w.s.Name(), i+1, alt.Issue)
						return false
					}
				}
			default:
				t.Logf("%s: unknown verdict %v", w.s.Name(), dec.Verdict)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1200}); err != nil {
		t.Fatal(err)
	}
}
