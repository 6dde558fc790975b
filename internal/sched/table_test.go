package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lighttrader/internal/cgra"
	"lighttrader/internal/sim"
)

// offGrid is an operating point no DVFS table holds.
var offGrid = cgra.DVFSState{FreqGHz: 1.234, Volt: 0.9}

// oracleConfigs spans what a Table is built from: the primary model and a
// two-rung degrade ladder × WS × DS × the three issue objectives × an on- and
// an off-grid static point × the default ladder and one that starts above
// batch 1.
func oracleConfigs(t *testing.T) []*Config {
	t.Helper()
	var out []*Config
	for _, base := range append([]*Config{testConfig(t, true, true)}, degradeTierConfigs(t, true, true)...) {
		for _, ws := range []bool{false, true} {
			for _, ds := range []bool{false, true} {
				for _, pol := range []Policy{PolicyPPW, PolicyLatency, PolicyThroughput} {
					for _, static := range []cgra.DVFSState{base.StaticDVFS, offGrid} {
						for _, ladder := range [][]int{nil, {2, 6}} {
							cfg := *base
							cfg.WorkloadScheduling, cfg.DVFSScheduling = ws, ds
							cfg.IssuePolicy, cfg.StaticDVFS, cfg.BatchOptions = pol, static, ladder
							out = append(out, &cfg)
						}
					}
				}
			}
		}
	}
	return out
}

// randomState draws a grid state, the static point or an off-grid one —
// also one that shares a grid frequency at another voltage.
func randomState(rng *rand.Rand, cfg *Config) cgra.DVFSState {
	grid := cfg.Spec.DVFSTable()
	d := grid[rng.Intn(len(grid))]
	switch rng.Intn(8) {
	case 0:
		return cfg.StaticDVFS
	case 1:
		return offGrid
	case 2:
		d.Volt += 0.01
	}
	return d
}

// randomContext draws a decision context that lands on both sides of — and,
// one time in four each, exactly on — the deadline and power boundaries.
func randomContext(rng *rand.Rand, cfg *Config) SchedContext {
	grid := cfg.Spec.DVFSTable()
	floor := oracleMinTotalNanos(cfg)
	ctx := SchedContext{
		Queued:          rng.Intn(40),
		AvailNanos:      rng.Int63n(8 * floor),
		PowerAvailWatts: rng.Float64() * 1.5 * cfg.BusyPower(grid[len(grid)-1]),
		Current:         randomState(rng, cfg),
		IdleAccels:      rng.Intn(5),
	}
	if rng.Intn(4) == 0 {
		ctx.AvailNanos = cfg.TotalNanos(randomState(rng, cfg), 1+rng.Intn(16)) + int64(rng.Intn(2))
	}
	if rng.Intn(4) == 0 {
		ctx.PowerAvailWatts = cfg.BusyPower(randomState(rng, cfg))
	}
	return ctx
}

// randomBusy draws Algorithm 2's input: up to five accelerators with
// distinct ids in random order, on and off the grid and the batch ladder.
func randomBusy(rng *rand.Rand, cfg *Config) []BusyAccel {
	busy := make([]BusyAccel, rng.Intn(6))
	for i, id := range rng.Perm(len(busy)) {
		busy[i] = BusyAccel{
			ID: id, DVFS: randomState(rng, cfg), Batch: 1 + rng.Intn(16),
			SlackNanos:     rng.Int63n(400_000) - 50_000,
			RemainingNanos: rng.Int63n(400_000),
		}
	}
	return busy
}

// hostileQ fills a Q-table with values that rank the actions arbitrarily.
func hostileQ(q []float64) {
	rng := rand.New(rand.NewSource(99))
	for i := range q {
		q[i] = rng.NormFloat64() * 100
	}
}

// TestTableMatchesOracle: every registry policy's Decide, the free function,
// and both steps of Algorithm 2 answer exactly as the model-evaluating loops
// in oracle_test.go do, on seeded random inputs over oracleConfigs.
func TestTableMatchesOracle(t *testing.T) {
	var issued, deferred, saved, raised int
	for ci, cfg := range oracleConfigs(t) {
		seed := int64(1000 + ci)
		rng := rand.New(rand.NewSource(seed))
		where := fmt.Sprintf("seed %d (ws %v ds %v %v static %v ladder %v %s)", seed, cfg.WorkloadScheduling,
			cfg.DVFSScheduling, cfg.IssuePolicy, cfg.StaticDVFS, cfg.BatchOptions, cfg.Kernel.ModelName)

		table := NewTable(cfg)
		if got, want := table.MinTotalNanos(), oracleMinTotalNanos(cfg); got != want {
			t.Fatalf("%s: MinTotalNanos %d, oracle %d", where, got, want)
		}
		stateless := []string{"ppw", "fcfs", "greedy", "rr", "sjf"}
		var policies []Scheduler
		for _, name := range stateless {
			f, err := FactoryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			policies = append(policies, f(cfg))
		}
		frozen, frozenWant := NewQScheduler(cfg, DefaultQConfig()), newOracleQ(cfg, DefaultQConfig())
		hostileQ(frozen.q)
		hostileQ(frozenWant.q)
		learner, learnerWant := NewQScheduler(cfg, DefaultQConfig()), newOracleQ(cfg, DefaultQConfig())
		learner.SetTraining(true)
		learnerWant.training = true

		for n := 0; n < 40; n++ {
			ctx := randomContext(rng, cfg)
			for i, p := range policies {
				if got, want := p.Decide(ctx), oracleDecide(stateless[i], cfg, ctx); got != want {
					t.Fatalf("%s: %s.Decide(%+v) = %+v, oracle %+v", where, stateless[i], ctx, got, want)
				}
			}
			want := oracleDecide("ppw", cfg, ctx)
			if is, v := PickIssueExplained(cfg, ctx.Queued, ctx.AvailNanos, ctx.PowerAvailWatts, ctx.Current); is != want.Issue || v != want.Verdict {
				t.Fatalf("%s: PickIssueExplained(%+v) = %+v %v, oracle %+v", where, ctx, is, v, want)
			}
			if want.Verdict == VerdictIssued {
				issued++
			} else {
				deferred++
			}
			if got, want := frozen.Decide(ctx), frozenWant.Decide(ctx); got != want {
				t.Fatalf("%s: frozen qtable.Decide(%+v) = %+v, oracle %+v", where, ctx, got, want)
			}
			if got, want := learner.Decide(ctx), learnerWant.Decide(ctx); got != want {
				t.Fatalf("%s: training qtable.Decide(%+v) = %+v, oracle %+v", where, ctx, got, want)
			}
			if n%10 == 9 {
				learner.EndEpisode()
				learnerWant.EndEpisode()
			}

			busy := randomBusy(rng, cfg)
			got, wantCh := table.savePower(nil, busy), oracleSavePower(cfg, busy)
			if !slices.Equal(got, wantCh) {
				t.Fatalf("%s: SavePower(%+v) = %+v, oracle %+v", where, busy, got, wantCh)
			}
			saved += len(got)
			grid := cfg.Spec.DVFSTable()
			avail := rng.Float64() * 12
			if rng.Intn(4) == 0 { // exactly one step's cost
				at := rng.Intn(len(grid) - 1)
				avail = cfg.BusyPower(grid[at+1]) - cfg.BusyPower(grid[at])
			}
			got, wantCh = table.redistribute(nil, busy, avail), oracleRedistribute(cfg, busy, avail)
			if !slices.Equal(got, wantCh) {
				t.Fatalf("%s: Redistribute(%+v, %v) = %+v, oracle %+v", where, busy, avail, got, wantCh)
			}
			raised += len(got)
		}
		if !slices.Equal(learner.q, learnerWant.q) || !slices.Equal(learner.visits, learnerWant.visits) {
			t.Fatalf("%s: trained Q-table differs from the oracle's", where)
		}
	}
	if issued == 0 || deferred == 0 || saved == 0 || raised == 0 {
		t.Fatalf("vacuous: %d issued, %d deferred, %d scale-downs, %d scale-ups", issued, deferred, saved, raised)
	}
}

// decideContexts are what an engine asks in steady state: a deep backlog
// with a loose deadline, a deadline only the fast states meet (forcing a
// switch from the floor), a power-starved issue, and a hopeless deadline.
func decideContexts(cfg *Config) []SchedContext {
	grid := cfg.Spec.DVFSTable()
	floor, top := grid[0], grid[len(grid)-1]
	tight := cfg.TotalNanos(top, 1) + cfg.Spec.DVFSSwitchNanos + cfg.TotalNanos(top, 1)/12
	return []SchedContext{
		{Queued: 16, AvailNanos: 10_000_000, PowerAvailWatts: 55, Current: floor, IdleAccels: 2},
		{Queued: 3, AvailNanos: tight, PowerAvailWatts: 55, Current: floor, IdleAccels: 1},
		{Queued: 8, AvailNanos: 2_000_000, PowerAvailWatts: cfg.BusyPower(grid[4]), Current: grid[6], IdleAccels: 1},
		{Queued: 2, AvailNanos: 1_000, PowerAvailWatts: 55, Current: top, IdleAccels: 1},
	}
}

var sinkDecision Decision

// TestDecideZeroAlloc: a constructed policy decides from its table without
// touching the heap.
func TestDecideZeroAlloc(t *testing.T) {
	cfg := testConfig(t, true, true)
	ctxs := decideContexts(cfg)
	for _, name := range []string{"ppw", "fcfs", "greedy", "rr", "sjf"} {
		f, err := FactoryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := f(cfg)
		if n := testing.AllocsPerRun(100, func() {
			for _, ctx := range ctxs {
				sinkDecision = p.Decide(ctx)
			}
		}); n != 0 {
			t.Errorf("%s.Decide: %v allocs per %d decisions, want 0", name, n, len(ctxs))
		}
	}
}

// boardRound is one steady-state round on a four-accelerator Board under a
// contested budget: every slot runs the admission step (decide, save and
// retry, commit), the saving step and the redistribution run, and every
// batch retires.
func boardRound(b *Board, p Scheduler, now int64) {
	const avail = 600_000 // batch 8 misses it at the floor state
	deadline := func(int) int64 { return now + boardPre + avail }
	for slot := 0; slot < b.Len(); slot++ {
		b.Admit(slot, now, 8, avail, 1, p, nil, true, deadline)
		b.Redistribute(now, 0)
	}
	b.save(now)
	for slot := 0; slot < b.Len(); slot++ {
		if b.Slot(slot).Busy {
			b.Retire(slot, now+2_000_000)
		}
	}
}

// TestBoardZeroAlloc: once its scratch has grown, the Board prices, retimes
// and re-sums without touching the heap.
func TestBoardZeroAlloc(t *testing.T) {
	cfg := testConfig(t, true, true)
	cfg.PowerBudgetWatts = 8 // four accelerators draw 3–18 W
	events := 0
	b := NewBoard(cfg, nil, 4, boardPre, true, func(sim.DVFSEvent) { events++ })
	p := NewPPWScheduler(cfg)
	now := int64(0)
	round := func() {
		boardRound(b, p, now)
		now += 4_000_000
	}
	round()
	var s Slot
	for i := 0; i < b.Len(); i++ {
		s.Switches += b.Slot(i).Switches
		s.Saves += b.Slot(i).Saves
		s.Redistributes += b.Slot(i).Redistributes
		s.Parks += b.Slot(i).Parks
	}
	retries, _, _, _ := b.AdmitCounts()
	if s.Switches == 0 || s.Saves == 0 || s.Redistributes == 0 || s.Parks == 0 || retries == 0 {
		t.Fatalf("vacuous round: %d switches, %d saves, %d redistributes, %d parks, %d save retries",
			s.Switches, s.Saves, s.Redistributes, s.Parks, retries)
	}
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("Board round (Admit, save, Redistribute, Retire): %v allocs, want 0", n)
	}
}
