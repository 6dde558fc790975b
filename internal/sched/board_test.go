package sched

import (
	"math/rand"
	"testing"

	"lighttrader/internal/sim"
)

// boardHarness drives one Board the way an engine does — decide on the
// Board's own context, save-and-retry on a power failure, commit — and
// checks the ledger invariants after every operation.
type boardHarness struct {
	t      *testing.T
	cfg    *Config
	tiers  []*Config
	b      *Board
	now    int64
	before []Slot          // slot records before the operation under check
	events []sim.DVFSEvent // events the operation emitted
	redist map[int]int     // Redistribute retimes of each slot's in-flight batch
	rng    *rand.Rand
	floor  int64 // the primary model's latency floor: the scale time advances on
}

const boardPre = 350

func newBoardHarness(t *testing.T, seed int64, n int, budget float64) *boardHarness {
	h := &boardHarness{t: t, cfg: testConfig(t, true, true), rng: rand.New(rand.NewSource(seed)),
		redist: map[int]int{}}
	h.cfg.PowerBudgetWatts = budget
	h.tiers = degradeTierConfigs(t, true, true)
	for _, tc := range h.tiers {
		tc.PowerBudgetWatts = budget
	}
	h.b = NewBoard(h.cfg, h.tiers, n, boardPre, true, func(e sim.DVFSEvent) { h.events = append(h.events, e) })
	h.floor = NewTable(h.cfg).MinTotalNanos()
	return h
}

// step runs one operation and checks what must hold after any of them.
func (h *boardHarness) step(name string, op func()) {
	h.t.Helper()
	h.before = h.before[:0]
	for i := 0; i < h.b.Len(); i++ {
		h.before = append(h.before, h.b.Slot(i))
	}
	h.events = h.events[:0]
	op()

	var sum float64
	for i := 0; i < h.b.Len(); i++ {
		sum += h.b.Slot(i).Draw
	}
	if h.b.Draw() != sum {
		h.t.Fatalf("%s @%d: ledger %.12f W != recomputed Σ draw %.12f W", name, h.now, h.b.Draw(), sum)
	}
	if max := h.b.MaxDraw(); max > h.cfg.PowerBudgetWatts+PowerEps || max < sum {
		h.t.Fatalf("%s @%d: MaxDraw %.12f W outside [draw %.12f, budget %.3f + eps]",
			name, h.now, max, sum, h.cfg.PowerBudgetWatts)
	}
	for _, e := range h.events {
		pre, post := h.before[e.Accel], h.b.Slot(e.Accel)
		switch e.Reason {
		case sim.DVFSSave:
			if post.DoneNanos > post.MinDeadlineNanos {
				h.t.Fatalf("%s @%d: Save pushed slot %d to %d, past its min deadline %d",
					name, h.now, e.Accel, post.DoneNanos, post.MinDeadlineNanos)
			}
			if e.ToGHz >= e.FromGHz {
				h.t.Fatalf("%s @%d: Save scaled slot %d up (%.1f→%.1f GHz)", name, h.now, e.Accel, e.FromGHz, e.ToGHz)
			}
		case sim.DVFSRedistribute:
			h.redist[e.Accel]++
			if pre.Retimes != 0 || h.redist[e.Accel] > 1 {
				h.t.Fatalf("%s @%d: Redistribute retimed slot %d again (retimes %d, redistributes %d)",
					name, h.now, e.Accel, pre.Retimes, h.redist[e.Accel])
			}
			if pre.Tier != 0 {
				h.t.Fatalf("%s @%d: Redistribute scaled up a tier-%d batch on slot %d", name, h.now, pre.Tier, e.Accel)
			}
		}
		if e.Reason == sim.DVFSSave || e.Reason == sim.DVFSRedistribute {
			if !pre.Busy || pre.DoneNanos <= h.now {
				h.t.Fatalf("%s @%d: retimed slot %d with no unfinished batch (%+v)", name, h.now, e.Accel, pre)
			}
			if post.DoneNanos-pre.DoneNanos != e.RetimedNanos {
				h.t.Fatalf("%s @%d: event retime %d ns != completion move %d ns",
					name, h.now, e.RetimedNanos, post.DoneNanos-pre.DoneNanos)
			}
		}
	}
}

// issue admits a batch on an idle slot against tier's cost model, with the
// engine-side save-and-retry on a power failure. Reports whether it issued.
func (h *boardHarness) issue(slot, tier int) bool {
	cfg := h.cfg
	if tier > 0 {
		cfg = h.tiers[tier-1]
	}
	queued := 1 + h.rng.Intn(16)
	// From hopeless to lavish: both infeasibility verdicts must occur.
	floor := NewTable(cfg).MinTotalNanos()
	avail := floor/2 + h.rng.Int63n(6*floor)
	decide := func() (Issue, Verdict) {
		ctx := h.b.Context(slot, h.now, queued, avail, 1)
		return PickIssueExplained(cfg, queued, avail, ctx.PowerAvailWatts, ctx.Current)
	}
	is, v := decide()
	if v == VerdictPowerInfeasible {
		saved := false
		h.step("save-retry", func() { saved = h.b.Save(h.now) })
		if saved {
			is, v = decide()
		}
	}
	if v != VerdictIssued {
		return false
	}
	h.redist[slot] = 0
	h.step("commit", func() {
		// avail = deadline − now − pre, so the batch's deadline is:
		done := h.b.Commit(slot, h.now, is, tier, h.now+boardPre+avail)
		if want := h.now + boardPre + is.TotalNanos; done != want {
			h.t.Fatalf("commit: done %d, want now+pre+t_total = %d", done, want)
		}
	})
	return true
}

// TestBoardRandomOperationInvariants is the ledger property: any legal
// interleaving of Commit / Save / Redistribute / Retire — including an
// online engine's late retires, where time passes a batch's completion
// before it is released — keeps the running draw equal to the recomputed
// Σ draw, the high-water mark within budget + PowerEps, every batch retimed
// at most once by Redistribute (and never a degraded one), and no Save
// retime past a batch's earliest deadline.
func TestBoardRandomOperationInvariants(t *testing.T) {
	var commits, saves, redists, parks int64
	for seed := int64(1); seed <= 20; seed++ {
		// Four accelerators cannot all run at the top state inside 14–22 W,
		// so admissions fail on power and residual budget is contested.
		h := newBoardHarness(t, seed, 4, 14+float64(seed%5)*2)
		for op := 0; op < 2000; op++ {
			slot := h.rng.Intn(h.b.Len())
			switch k := h.rng.Intn(10); {
			case k < 4:
				if !h.b.Slot(slot).Busy {
					tier := 0
					if h.rng.Intn(4) == 0 {
						tier = 1 + h.rng.Intn(len(h.tiers))
					}
					if h.issue(slot, tier) {
						h.step("redistribute-after-commit", func() { h.b.Redistribute(h.now, h.rng.Intn(3)-1) })
					}
				}
			case k < 5:
				h.step("save", func() { h.b.Save(h.now) })
			case k < 6:
				h.step("redistribute", func() { h.b.Redistribute(h.now, h.rng.Intn(4)) })
			case k < 8:
				// Retire the earliest batch, at its completion (event-time
				// engine) or late (wall-clock engine whose dispatch overran).
				if s, done, ok := h.b.EarliestDone(); ok {
					if done > h.now || h.rng.Intn(2) == 0 {
						h.now = max(h.now, done)
					}
					h.step("retire", func() { h.b.Retire(s, done) })
				}
			default:
				h.now += h.rng.Int63n(h.floor)
			}
		}
		for i := 0; i < h.b.Len(); i++ {
			s := h.b.Slot(i)
			commits += s.Switches
			saves += s.Saves
			redists += s.Redistributes
			parks += s.Parks
		}
	}
	t.Logf("switches %d saves %d redistributes %d parks %d", commits, saves, redists, parks)
	if commits == 0 || saves == 0 || redists == 0 || parks == 0 {
		t.Fatalf("vacuous run: switches %d, saves %d, redistributes %d, parks %d", commits, saves, redists, parks)
	}
}

// TestBoardParkBoundary pins retire-time parking: a park event (and count)
// only when the operating point actually changes, and never without DVFS
// scheduling.
func TestBoardParkBoundary(t *testing.T) {
	cfg := testConfig(t, true, true)
	table := cfg.Spec.DVFSTable()
	floor, top := table[0], table[len(table)-1]
	for _, tc := range []struct {
		name      string
		dvfs      bool
		issueAt   int // table index the batch runs at
		wantParks int64
	}{
		{"above-floor parks", true, len(table) - 1, 1},
		{"at-floor stays silent", true, 0, 0},
		{"no DVFS scheduling never parks", false, len(table) - 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var events []sim.DVFSEvent
			b := NewBoard(cfg, nil, 1, 0, tc.dvfs, func(e sim.DVFSEvent) { events = append(events, e) })
			b.Commit(0, 100, Issue{Batch: 1, DVFS: table[tc.issueAt], TotalNanos: 1000}, 0, 1<<40)
			events = events[:0]
			b.Retire(0, 1100)
			s := b.Slot(0)
			if s.Parks != tc.wantParks || int64(len(events)) != tc.wantParks {
				t.Fatalf("parks = %d, events = %+v; want %d", s.Parks, events, tc.wantParks)
			}
			want := floor
			if !tc.dvfs {
				want = top
			}
			if s.Busy || s.State != want || s.Draw != cfg.Spec.IdlePower(want) || b.Draw() != s.Draw {
				t.Fatalf("after retire: %+v, ledger %.6f; want idle at %.1f GHz", s, b.Draw(), want.FreqGHz)
			}
			if tc.wantParks == 1 {
				e := events[0]
				if e.Reason != sim.DVFSPark || e.TimeNanos != 1100 || e.FromGHz != top.FreqGHz || e.ToGHz != floor.FreqGHz {
					t.Fatalf("park event = %+v", e)
				}
			}
		})
	}
}

// TestBoardExactBudgetBoundary pins the budget edge through the Board: a
// scale-up that consumes the residual budget exactly is taken ("fully
// consuming the constrained power"), one a microwatt short is not, and a
// deciding slot's own draw is excluded from its unallocated budget.
func TestBoardExactBudgetBoundary(t *testing.T) {
	cfg := testConfig(t, true, true)
	table := cfg.Spec.DVFSTable()
	cur, next := table[3], table[4]
	long := Issue{Batch: 4, DVFS: cur, TotalNanos: 1 << 30}

	for _, tc := range []struct {
		name   string
		budget float64
		want   float64 // GHz after Redistribute
	}{
		{"exact", cfg.BusyPower(next), next.FreqGHz},
		{"short", cfg.BusyPower(next) - 1e-6, cur.FreqGHz},
	} {
		cfg.PowerBudgetWatts = tc.budget
		b := NewBoard(cfg, nil, 1, 0, true, func(sim.DVFSEvent) {})
		b.Commit(0, 0, long, 0, 1<<40)
		b.Redistribute(0, 0)
		if got := b.Slot(0).State.FreqGHz; got != tc.want {
			t.Errorf("%s budget: slot runs at %.1f GHz, want %.1f", tc.name, got, tc.want)
		}
		if b.MaxDraw() > tc.budget+PowerEps {
			t.Errorf("%s budget: MaxDraw %.9f W over %.9f W", tc.name, b.MaxDraw(), tc.budget)
		}
	}

	cfg.PowerBudgetWatts = 20
	b := NewBoard(cfg, nil, 2, 0, true, func(sim.DVFSEvent) {})
	b.Commit(1, 0, long, 0, 1<<40)
	b.Commit(0, 0, long, 0, 1<<40)
	if got, want := b.Context(0, 0, 1, 1<<30, 1).PowerAvailWatts, 20-b.Slot(1).Draw; got != want {
		t.Errorf("PowerAvailWatts = %.9f, want budget − the other slot's draw = %.9f", got, want)
	}
}
