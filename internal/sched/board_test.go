package sched

import (
	"math/rand"
	"slices"
	"testing"

	"lighttrader/internal/sim"
)

// boardHarness drives one Board the way the engines do — through Admit, and
// through the steps it is made of (decide on the Board's own context,
// save-and-retry on a power failure, commit on any tier) — and checks the
// ledger invariants after every operation.
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

	// pol and ladder are what Admit asks (one registry policy per seed);
	// retries, degrades and tierIssues tally what Admit reported.
	pol               Scheduler
	ladder            []Scheduler
	retries, degrades int64
	tierIssues        []int64
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
	h.floor = oracleMinTotalNanos(h.cfg)
	names := SchedulerNames()
	f, err := FactoryByName(names[int(seed)%len(names)])
	if err != nil {
		t.Fatal(err)
	}
	h.pol, h.ladder = f(h.cfg), NewModelTiers(f, h.tiers)
	h.tierIssues = make([]int64, len(h.tiers)+1)
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
	floor := oracleMinTotalNanos(cfg)
	avail := floor/2 + h.rng.Int63n(6*floor)
	decide := func() (Issue, Verdict) {
		ctx := h.b.Context(slot, queued, avail)
		return PickIssueExplained(cfg, queued, avail, ctx.PowerAvailWatts, ctx.Current)
	}
	is, v := decide()
	if v == VerdictPowerInfeasible {
		saved := false
		h.step("save-retry", func() { saved = h.b.save(h.now) })
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
		h.b.commit(slot, h.now, is, tier, h.now+boardPre+avail)
		if done, want := h.b.Slot(slot).DoneNanos, h.now+boardPre+is.TotalNanos; done != want {
			h.t.Fatalf("commit: done %d, want now+pre+t_total = %d", done, want)
		}
	})
	return true
}

// admit runs the admission step on an idle slot — with or without the
// ladder, the save allowed or not, sometimes on an empty queue — and checks
// what it reports against what it did to the slot.
func (h *boardHarness) admit(slot int) {
	queued := h.rng.Intn(17)
	avail := h.floor/2 + h.rng.Int63n(6*h.floor)
	deadline := h.now + boardPre + avail
	var tiers []Scheduler
	if h.rng.Intn(2) == 0 {
		tiers = h.ladder
	}
	allowSave := h.rng.Intn(4) != 0
	asked := -1
	var dec Decision
	var saved bool
	h.step("admit", func() {
		dec, saved = h.b.Admit(slot, h.now, queued, avail, h.pol, tiers, allowSave,
			func(n int) int64 { asked = n; return deadline })
	})
	savedEvents := 0
	for _, e := range h.events {
		if e.Reason == sim.DVFSSave {
			savedEvents++
		}
	}
	s := h.b.Slot(slot)
	issued := dec.Verdict == VerdictIssued || dec.Verdict == VerdictDegradedModel
	switch {
	case saved && !allowSave, savedEvents > 0 && !saved:
		h.t.Fatalf("admit @%d: saved %v with allowSave %v and %d save events", h.now, saved, allowSave, savedEvents)
	case queued == 0 && (dec.Verdict != VerdictNoQueue || saved):
		h.t.Fatalf("admit @%d: empty queue answered %+v (saved %v)", h.now, dec, saved)
	case issued != s.Busy || issued != (asked >= 0):
		h.t.Fatalf("admit @%d: %v left the slot busy=%v, minDeadlineFor asked %d", h.now, dec.Verdict, s.Busy, asked)
	case (dec.Verdict == VerdictDegradedModel) != (dec.Tier > 0), dec.Tier > len(tiers):
		h.t.Fatalf("admit @%d: %v on tier %d with a ladder of %d", h.now, dec.Verdict, dec.Tier, len(tiers))
	case issued && (asked != dec.Issue.Batch || s.Tier != dec.Tier || s.MinDeadlineNanos != deadline ||
		s.Batch != dec.Issue.Batch || s.DoneNanos != h.now+boardPre+dec.Issue.TotalNanos):
		h.t.Fatalf("admit @%d: %+v committed as %+v (minDeadlineFor asked %d)", h.now, dec, s, asked)
	}
	if saved {
		h.retries++
	}
	if dec.Verdict == VerdictDegradedModel {
		h.degrades++
	}
	if issued {
		h.tierIssues[dec.Tier]++
		h.redist[slot] = 0
	}
}

// TestBoardRandomOperationInvariants is the ledger property: any legal
// interleaving of Admit / commit / save / Redistribute / Retire — including
// an online engine's late retires, where time passes a batch's completion
// before it is released — keeps the running draw equal to the recomputed
// Σ draw, the high-water mark within budget + PowerEps, every batch retimed
// at most once by Redistribute (and never a degraded one), and no save
// retime past a batch's earliest deadline; Admit reports what it did and
// its counters add up.
func TestBoardRandomOperationInvariants(t *testing.T) {
	var commits, saves, redists, parks, retries, rescues, degrades int64
	for seed := int64(1); seed <= 20; seed++ {
		// Four accelerators cannot all run at the top state inside 14–22 W,
		// so admissions fail on power and residual budget is contested.
		h := newBoardHarness(t, seed, 4, 14+float64(seed%5)*2)
		for op := 0; op < 2000; op++ {
			slot := h.rng.Intn(h.b.Len())
			switch k := h.rng.Intn(10); {
			case k < 4:
				if h.b.Slot(slot).Busy {
					break
				}
				if h.rng.Intn(2) == 0 {
					h.admit(slot)
				} else {
					tier := 0
					if h.rng.Intn(4) == 0 {
						tier = 1 + h.rng.Intn(len(h.tiers))
					}
					h.issue(slot, tier)
				}
				if h.b.Slot(slot).Busy {
					h.step("redistribute-after-commit", func() { h.b.Redistribute(h.now, h.rng.Intn(3)-1) })
				}
			case k < 5:
				h.step("save", func() { h.b.save(h.now) })
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
		r, rs, d, tiers := h.b.AdmitCounts()
		if r != h.retries || d != h.degrades || rs > r || !slices.Equal(tiers, h.tierIssues) {
			t.Fatalf("seed %d: AdmitCounts = %d retries, %d rescues, %d degrades, tiers %v; admits reported %d, %d, %v",
				seed, r, rs, d, tiers, h.retries, h.degrades, h.tierIssues)
		}
		retries, rescues, degrades = retries+r, rescues+rs, degrades+d
	}
	t.Logf("switches %d saves %d redistributes %d parks %d; admit retries %d rescues %d degrades %d",
		commits, saves, redists, parks, retries, rescues, degrades)
	if commits == 0 || saves == 0 || redists == 0 || parks == 0 || retries == 0 || rescues == 0 || degrades == 0 {
		t.Fatalf("vacuous run: switches %d, saves %d, redistributes %d, parks %d, retries %d, rescues %d, degrades %d",
			commits, saves, redists, parks, retries, rescues, degrades)
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
			b.commit(0, 100, Issue{Batch: 1, DVFS: table[tc.issueAt], TotalNanos: 1000}, 0, 1<<40)
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
		b.commit(0, 0, long, 0, 1<<40)
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
	b.commit(1, 0, long, 0, 1<<40)
	b.commit(0, 0, long, 0, 1<<40)
	if got, want := b.Context(0, 1, 1<<30).PowerAvailWatts, 20-b.Slot(1).Draw; got != want {
		t.Errorf("PowerAvailWatts = %.9f, want budget − the other slot's draw = %.9f", got, want)
	}
}

// TestBoardAdmit pins the admission step's order on two slots. Slot 1 runs a
// long batch at the top state, with room to slow down or with none (its
// earliest deadline is its completion), and slot 0 asks with x W of the
// budget left to it. The saving step runs only on a power failure, only
// when the engine allows it and DVFS scheduling is on; the ladder runs after
// it, so a query the save rescues is never degraded, and answers what the
// save cannot; an issue is committed on its own tier; the counters follow.
func TestBoardAdmit(t *testing.T) {
	base := testConfig(t, true, true)
	tierCfgs := degradeTierConfigs(t, true, true)
	grid := base.Spec.DVFSTable()
	top := grid[len(grid)-1]
	const lavish = 10_000_000 // every state meets it
	// fast is met by the tier at 1.2 GHz but by the primary only at a state
	// drawing more than 2 W; tight by the tier alone, at the upper states.
	fast := tierCfgs[0].TotalNanos(grid[4], 1) + base.Spec.DVFSSwitchNanos + 1_000
	tight := tierCfgs[0].TotalNanos(top, 1) + base.Spec.DVFSSwitchNanos + 1_000
	for _, p := range []struct {
		cfg   *Config
		avail int64
		watts float64
		want  Verdict
	}{
		{base, fast, 2, VerdictPowerInfeasible},
		{tierCfgs[0], fast, 2, VerdictIssued},
		{base, tight, 10, VerdictDeadlineInfeasible},
		{tierCfgs[0], tight, 10, VerdictIssued},
	} {
		if _, v := PickIssueExplained(p.cfg, 1, p.avail, p.watts, grid[0]); v != p.want {
			t.Fatalf("premise: %s at %d ns and %.1f W decides %v, want %v", p.cfg.Kernel.ModelName, p.avail, p.watts, v, p.want)
		}
	}

	for _, tc := range []struct {
		name                    string
		slack                   bool    // slot 1's batch can slow down
		x                       float64 // W of the budget left to slot 0
		avail                   int64
		queued                  int
		ladder, allowSave, dvfs bool
		want                    Verdict
		tier                    int
		saved                   bool
		counts                  [3]int64 // retries, rescues, degrades
		tierIssues              []int64
	}{
		{name: "save rescues", slack: true, x: 0.5, avail: lavish, queued: 4, allowSave: true, dvfs: true,
			want: VerdictIssued, saved: true, counts: [3]int64{1, 1, 0}},
		{name: "save rescues before the ladder", slack: true, x: 2, avail: fast, queued: 1, ladder: true, allowSave: true, dvfs: true,
			want: VerdictIssued, saved: true, counts: [3]int64{1, 1, 0}, tierIssues: []int64{1, 0, 0}},
		{name: "save changes nothing, no ladder: the verdict passes", x: 0.5, avail: lavish, queued: 4, allowSave: true, dvfs: true,
			want: VerdictPowerInfeasible, saved: true, counts: [3]int64{1, 0, 0}},
		{name: "ladder after a failed retry", x: 2, avail: fast, queued: 1, ladder: true, allowSave: true, dvfs: true,
			want: VerdictDegradedModel, tier: 1, saved: true, counts: [3]int64{1, 0, 1}, tierIssues: []int64{0, 1, 0}},
		{name: "save not allowed", slack: true, x: 0.5, avail: lavish, queued: 4, dvfs: true,
			want: VerdictPowerInfeasible},
		{name: "DVFS scheduling off", slack: true, x: 0.5, avail: lavish, queued: 4, allowSave: true,
			want: VerdictPowerInfeasible},
		{name: "deadline-infeasible never saves", slack: true, x: 0.5, avail: 1_000, queued: 4, ladder: true, allowSave: true, dvfs: true,
			want: VerdictDeadlineInfeasible, tierIssues: []int64{0, 0, 0}},
		{name: "ladder answers a deadline the primary misses", slack: true, x: 10, avail: tight, queued: 1, ladder: true, allowSave: true, dvfs: true,
			want: VerdictDegradedModel, tier: 1, counts: [3]int64{0, 0, 1}, tierIssues: []int64{0, 1, 0}},
		{name: "empty queue", slack: true, x: 0.5, avail: lavish, ladder: true, allowSave: true, dvfs: true,
			want: VerdictNoQueue, tierIssues: []int64{0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := *base
			cfg.PowerBudgetWatts = base.BusyPower(top) + tc.x
			var tcfgs []*Config
			var tiers []Scheduler
			if tc.ladder {
				tcfgs, tiers = tierCfgs, NewModelTiers(factories["ppw"], tierCfgs)
			}
			b := NewBoard(&cfg, tcfgs, 2, boardPre, tc.dvfs, func(sim.DVFSEvent) {})
			long := Issue{Batch: 1, DVFS: top, TotalNanos: 1 << 30}
			slotDeadline := int64(boardPre + long.TotalNanos)
			if tc.slack {
				slotDeadline = 1 << 40
			}
			b.commit(1, 0, long, 0, slotDeadline)

			const now, deadline = 1_000, 1 << 41
			asked := -1
			dec, saved := b.Admit(0, now, tc.queued, tc.avail, NewPPWScheduler(&cfg), tiers, tc.allowSave,
				func(n int) int64 { asked = n; return deadline })
			if dec.Verdict != tc.want || dec.Tier != tc.tier || saved != tc.saved {
				t.Fatalf("Admit = %v on tier %d, saved %v; want %v on tier %d, saved %v",
					dec.Verdict, dec.Tier, saved, tc.want, tc.tier, tc.saved)
			}
			s := b.Slot(0)
			if issued := tc.want == VerdictIssued || tc.want == VerdictDegradedModel; !issued {
				if s.Busy || asked != -1 {
					t.Fatalf("refusal left slot 0 %+v, minDeadlineFor asked %d", s, asked)
				}
			} else if !s.Busy || s.Tier != tc.tier || s.Batch != dec.Issue.Batch || asked != dec.Issue.Batch ||
				s.MinDeadlineNanos != deadline || s.DoneNanos != now+boardPre+dec.Issue.TotalNanos ||
				s.Draw != b.tableFor(tc.tier).busyPower(dec.Issue.DVFS) {
				t.Fatalf("%+v committed as %+v (minDeadlineFor asked %d)", dec, s, asked)
			}
			wantSaves := int64(0)
			if saved && tc.slack {
				wantSaves = 1
			}
			if got := b.Slot(1).Saves; got != wantSaves {
				t.Fatalf("slot 1 scaled down %d times, want %d", got, wantSaves)
			}
			r, rs, d, ti := b.AdmitCounts()
			if [3]int64{r, rs, d} != tc.counts || !slices.Equal(ti, tc.tierIssues) {
				t.Fatalf("AdmitCounts = %d retries, %d rescues, %d degrades, tiers %v; want %v, tiers %v",
					r, rs, d, ti, tc.counts, tc.tierIssues)
			}
		})
	}
}
