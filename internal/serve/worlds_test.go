package serve

// The generated-world harness (DESIGN.md §16): one int64 seed builds one
// world, a registry scenario perturbed by the seed under a drawn
// deployment, and TestWorlds runs it through core.System and the serving
// runtime against six checks: (1) accounting, (2) power, (3) lossless
// lane-count parity, (4) determinism, (5) sim ≡ serve at one lane, (6)
// finite features and confidences. A failing world shrinks while it still
// fails and prints one worldSpec line; added to worldRegressions it replays
// as go test ./internal/serve -run 'TestWorlds/regress/<i>'.

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/feed"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
	"lighttrader/internal/tensor"
	"lighttrader/internal/trading"
)

var worldCount = flag.Int("worlds", 0, "generated worlds TestWorlds runs (0: the default)")

// defaultWorlds is the world count without -worlds, the smallest at which
// at least two worlds reach every behaviour the coverage tally names, so
// that re-dealing one world cannot fail the tally without a bug. The tally
// is a function of the seeds, so one run of -worlds N -v re-measures it;
// do so whenever the deal changes (a policy added or deleted changes P
// below): "DVFS save" is the scarcest behaviour, reached first by seeds 20
// and 68. race_test.go lowers it under the race detector.
var defaultWorlds = 69

// worldTicks is the packet count a world is sized to, and its cap.
const worldTicks = 2048

// noDeadline is the deadline budget of a world without one, in both engines.
const noDeadline = 1 << 50

// worldSpec is one replayable world. Seed draws everything; the other
// fields are the shrinker's cuts, zero when unset: Drop leaves out drawn
// phases (bit i, phase i), Ticks caps the packets, Lanes and Instruments
// lower the drawn counts.
type worldSpec struct {
	Seed               int64
	Drop               uint32
	Ticks              int
	Lanes, Instruments int
}

func (s worldSpec) String() string {
	return fmt.Sprintf("{Seed: %d, Drop: %#x, Ticks: %d, Lanes: %d, Instruments: %d}",
		s.Seed, s.Drop, s.Ticks, s.Lanes, s.Instruments)
}

// worldRegressions are shrunk failing worlds, kept once fixed. A line names
// a world of this generator: change buildWorld's draws and each line must
// be shrunk again from a tree that still has its bug.
var worldRegressions = []worldSpec{
	// offload.Normalizer{} divided by its zero Std: every feature was NaN
	// or ±Inf, every confidence NaN, and every prediction Down.
	{Seed: 0, Drop: 0x3, Ticks: 193, Lanes: 0, Instruments: 1},
	// On the modelled clock a lane read its decision instant from its
	// batch's completion, then retired the batches due by then, and one of
	// them redistributed power onto that batch and retimed it 1 318 ns
	// later: the lane issued on an accelerator still busy.
	{Seed: 869, Drop: 0xe, Ticks: 256, Lanes: 0, Instruments: 0},
}

// worldPolicies deals the registry's policies, plus "none": no admission,
// the one way a query is served late.
var worldPolicies = append(sched.SchedulerNames(), "none")

var worldBudgets = []core.PowerCondition{
	core.Sufficient, core.Limited, {Name: "1W", AccelBudgetWatts: 1}, {Name: "0.001W", AccelBudgetWatts: 0.001},
}

type world struct {
	src          *scenario.Source
	packets      [][]byte
	queries      []sim.Query
	phases       int  // drawn phases, before Drop
	halted       bool // a withheld phase leaves a sequence gap in the stream
	policy       string
	lanes        int
	budget       core.PowerCondition
	tAvail       int64
	maxQueue     int
	unbounded    bool // the concurrent run queues the whole feed instead of running on modelled time
	ws, ds, stub bool
	sys          core.SystemConfig // M1's or M2's tables on the world's lanes, budget and policy
	tier         *sched.Config     // the ladder's one rung; nil with the ladder off
	models       []*nn.Model       // each instrument's forward pass: M1
	tierModel    *nn.Model         // the ladder's forward pass; nil for the stub
}

func (w *world) String() string {
	return fmt.Sprintf("%s: %d packets, %d instruments, policy %s, %d lanes, %s budget, tAvail %d ns, queue %d, unbounded %v, ws %v, ds %v, %s tables, stub %v, ladder %v",
		w.src.Name(), len(w.packets), len(w.models), w.policy, w.lanes, w.budget.Name,
		w.tAvail, w.maxQueue, w.unbounded, w.ws, w.ds, w.sys.Sched.Kernel.ModelName, w.stub, w.tier != nil)
}

// buildWorld draws the world of spec.Seed and applies spec's cuts. Seed i
// deals policy i mod P (P = len(worldPolicies)); the rest is dealt from the
// round r = i/P, which every policy plays once: budget r mod 4, deadline
// kind r mod 3 and lanes 1 + (r + r/4) mod 8. So within 12 rounds every
// policy meets every budget at every deadline kind, within 8 it meets both
// lane parities at every budget, and rounds 0–10 deal all eight lane
// counts.
func buildWorld(t testing.TB, spec worldSpec) *world {
	t.Helper()
	i, p := spec.Seed, int64(len(worldPolicies))
	r := i / p
	rng := rand.New(rand.NewSource(i))
	w := &world{policy: worldPolicies[i%p], lanes: 1 + int((r+r/4)%8),
		budget: worldBudgets[r%int64(len(worldBudgets))], tAvail: noDeadline}
	switch r % 3 {
	case 0:
		w.tAvail = 1
	case 1: // log-uniform in 150 µs–20 ms, weighted toward the batch-1 service times
		w.tAvail = int64(150e3 * math.Pow(20e6/150e3, rng.Float64()*rng.Float64()))
	}
	w.maxQueue = 1 << rng.Intn(7)
	w.unbounded = rng.Intn(2) == 0
	w.ws, w.ds = rng.Intn(4) > 0, rng.Intn(4) > 0
	ladder := rng.Intn(2) == 0 && w.policy != "none"
	rung := rng.Intn(3) // 0: the stub, 1: M1, 2: M1 on M2's tables
	w.stub = rung == 0
	names := scenario.Names()
	base, err := scenario.ByName(names[rng.Intn(len(names))], i)
	if err != nil {
		t.Fatal(err)
	}
	sc := base.Script()
	phases := perturbPhases(rng, sc.Phases)
	k := w.lanes + rng.Intn(9-w.lanes)

	w.phases, sc.Phases = len(phases), nil
	for j, ph := range phases {
		if spec.Drop&(1<<j) == 0 {
			sc.Phases = append(sc.Phases, ph)
		}
	}
	if spec.Instruments > 0 {
		k = min(k, spec.Instruments)
	}
	if spec.Lanes > 0 {
		w.lanes = min(w.lanes, spec.Lanes)
	}
	w.lanes = min(w.lanes, k)
	sc.Instruments = nil
	for j := range k {
		sc.Instruments = append(sc.Instruments, scenario.Instrument{SecurityID: int32(j + 1),
			Symbol: fmt.Sprintf("W%d", j+1), MidPrice: 450000 + 100000*int64(j), DepthPerLevel: 50})
		w.models = append(w.models, nn.NewSizedCNN("world-M1", 8, 0))
	}
	fitTicks(sc.Phases, k)

	// The forward pass is M1 (or the stub) whatever the rung: M2's tables
	// give the ladder M1's as a cheaper rung at M1's cost per tick, and the
	// ladder's forward pass is M1 cropped to 16 rows.
	w.sys = w.compile(t, w.models[0])
	if ladder {
		tier := w.sys.Sched
		w.tier = &tier
		if !w.stub {
			crop := nn.SizedCNNSpec("world-M1-crop", 8, 0)
			crop.Lookback = 16
			w.tierModel = nn.MustBuildZoo(crop)
		}
	}
	if ladder || rung == 2 {
		w.sys = w.compile(t, nn.NewSizedCNN("world-M2", 16, 3))
	}
	if w.src, err = scenario.New(base.Name(), sc, i); err != nil {
		t.Fatal(err)
	}
	if spec.Ticks == 0 {
		spec.Ticks = worldTicks
	}
	w.packets = w.src.Packets()
	w.packets = w.packets[:min(len(w.packets), spec.Ticks)]
	w.queries = w.src.Queries(w.tAvail)[:len(w.packets)]
	for _, sp := range w.src.PhaseSpans() {
		w.halted = w.halted || (sp.Withheld > 0 && sp.FirstTick < len(w.packets))
	}
	return w
}

// perturbPhases edits a copy of a registry phase list.
func perturbPhases(rng *rand.Rand, phases []scenario.Phase) []scenario.Phase {
	ps := slices.Clone(phases)
	if j := rng.Intn(len(ps)); len(ps) > 1 && rng.Intn(3) == 0 {
		ps = slices.Delete(ps, j, j+1)
	}
	if j := rng.Intn(len(ps)); rng.Intn(3) == 0 {
		ps = slices.Insert(ps, j, ps[j])
	}
	if a, b := rng.Intn(len(ps)), rng.Intn(len(ps)); rng.Intn(3) == 0 {
		ps[a], ps[b] = ps[b], ps[a]
	}
	for j := range ps {
		ph, a := &ps[j], &ps[j].Arrivals
		if len(a.Hawkes) == 0 && a.RateHz > 0 { // Poisson is the Alpha = 0 Hawkes
			a.Hawkes = []feed.HawkesParams{{Mu: a.RateHz, Beta: 1}}
		}
		a.Hawkes = slices.Clone(a.Hawkes) // a repeated phase shares its original's
		f := 0.5 * math.Pow(8, rng.Float64())
		for k := range a.Hawkes {
			a.Hawkes[k].Mu *= f
		}
		if rng.Intn(4) == 0 { // the paper script's mix: a near-critical burst component and flash bursts
			a.Hawkes = append(a.Hawkes, feed.HawkesParams{Mu: 6.5 * f, Alpha: 540, Beta: 560})
			a.Flash = &feed.FlashParams{MeanIntervalSecs: 0.5, DurationSecs: 0.005, RateHz: 75000}
		}
		ph.Withhold = ph.Withhold != (j > 0 && rng.Intn(8) == 0)
		ph.SnapshotOnEnter = ph.SnapshotOnEnter != (rng.Intn(8) == 0)
		if rng.Intn(8) == 0 {
			ph.SweepOnEnter = (ph.SweepOnEnter + 1 + rng.Intn(4)) % 5
		}
	}
	return ps
}

// fitTicks shortens the phases so the expected packet count is about
// worldTicks: a Hawkes component's stationary rate is Mu/(1 − Alpha/Beta),
// and a phase with no process is Poisson at 100/s.
func fitTicks(phases []scenario.Phase, instruments int) {
	var want float64
	for _, ph := range phases {
		rate := 0.0
		for _, h := range ph.Arrivals.Hawkes {
			rate += h.Mu / (1 - h.Alpha/h.Beta)
		}
		if f := ph.Arrivals.Flash; f != nil {
			rate += f.RateHz * f.DurationSecs / f.MeanIntervalSecs
		}
		if rate = max(rate, 100); ph.Correlated {
			rate *= float64(instruments)
		}
		want += rate * ph.DurationSecs
	}
	for j := range phases {
		phases[j].DurationSecs *= min(1, worldTicks/want)
	}
}

// compile builds m's tables for the world's lanes, budget and policy
// ("none" runs the simulator's default policy).
func (w *world) compile(t testing.TB, m *nn.Model) core.SystemConfig {
	t.Helper()
	f, _ := sched.FactoryByName(w.policy)
	cfg, err := core.Configure(m, w.lanes, w.budget,
		core.Options{WorkloadScheduling: w.ws, DVFSScheduling: w.ds, Scheduler: f})
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxQueue = w.maxQueue
	return cfg
}

// admission gives cfg the world's scheduling config and, when asked for
// and the world has one, its ladder.
func (w *world) admission(cfg *Config, ladder bool) {
	if w.policy == "none" {
		return
	}
	sys := w.sys
	cfg.Sched, cfg.Scheduler = &sys.Sched, sys.Scheduler
	if w.tier != nil && ladder {
		cfg.Tiers = []TierConfig{{Sched: w.tier, Model: w.tierModel}}
	}
}

// powerCap is the most a run may draw: the budget, or the idle floor of
// every accelerator when the budget cannot hold even that (nothing issues
// then).
func (w *world) powerCap() float64 {
	cfg := w.sys.Sched
	boot := cfg.StaticDVFS
	if w.ds {
		boot = cfg.Spec.DVFSTable()[0]
	}
	return math.Max(w.budget.AccelBudgetWatts, float64(w.lanes)*cfg.Spec.IdlePower(boot)) + 1e-9
}

// multi subscribes the world's instruments on their models (answered by
// the stub when the world has one) and counts in bad every prediction made
// from a non-finite feature or with a non-finite confidence.
func (w *world) multi(t testing.TB, bad *atomic.Int64) *core.MultiPipeline {
	t.Helper()
	stub := func(x *tensor.Tensor) (nn.Direction, float32, error) {
		d := x.Data()
		if slices.ContainsFunc(d, func(v float32) bool { return math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) }) {
			bad.Add(1)
		}
		// Up when the newest row's best bid size beats the best ask size
		// (a row is ask, ask size, bid, bid size per level), down when it
		// trails, stationary on a tie.
		last := d[len(d)-nn.Features:]
		return nn.Direction(1 + cmp.Compare(last[3], last[1])), 1, nil
	}
	mp := core.NewMultiPipeline()
	for i, ins := range w.src.Script().Instruments {
		tcfg := trading.DefaultConfig(ins.SecurityID)
		tcfg.MinConfidence = 0 // act on every directional signal
		p, err := core.NewPipeline(ins.Symbol, ins.SecurityID, w.models[i], offload.Normalizer{}, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if w.stub {
			p.SetPredictor(stub)
		}
		p.SetSignalHook(func(e core.SignalEvent) {
			if !(e.Confidence >= 0 && e.Confidence <= 1) {
				bad.Add(1)
			}
		})
		if err := mp.Attach(p); err != nil {
			t.Fatal(err)
		}
	}
	return mp
}

// worldProbe is a tracer that also holds a run to the power cap and, when
// busy is non-nil (modelled time), to one batch per accelerator at a time.
type worldProbe struct {
	*sim.Tracer
	limit  float64
	busy   map[int]busyInterval
	retime map[int]int64 // retimes of a batch not yet reported issued
	errs   []string
}

type busyInterval struct{ issueAt, issuedDone, done int64 }

func newWorldProbe(w *world, modelled bool) *worldProbe {
	p := &worldProbe{Tracer: sim.NewTracerCapacity(4*len(w.queries) + 64), limit: w.powerCap(), retime: map[int]int64{}}
	if modelled {
		p.busy = map[int]busyInterval{}
	}
	return p
}

func (p *worldProbe) failf(format string, args ...any) {
	if len(p.errs) < 3 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *worldProbe) OnQueryEvent(e sim.QueryEvent) {
	p.Tracer.OnQueryEvent(e)
	if e.Kind != sim.QueryIssue || p.busy == nil {
		return
	}
	b, ok := p.busy[e.Accel]
	if ok && e.TimeNanos == b.issueAt && e.DoneNanos == b.issuedDone {
		return // another query of the same batch
	}
	if ok && e.TimeNanos < b.done {
		p.failf("accel %d issued at %d while busy until %d", e.Accel, e.TimeNanos, b.done)
	}
	p.busy[e.Accel] = busyInterval{e.TimeNanos, e.DoneNanos, e.DoneNanos + p.retime[e.Accel]}
	delete(p.retime, e.Accel)
}

// OnDVFSEvent shifts the retimed batch's end. The runtime's governor
// redistributes before the lane reports the batch it just issued, so a
// retime at or after the recorded batch's end is the next batch's.
func (p *worldProbe) OnDVFSEvent(e sim.DVFSEvent) {
	p.Tracer.OnDVFSEvent(e)
	if b, ok := p.busy[e.Accel]; ok && e.TimeNanos < b.done {
		b.done += e.RetimedNanos
		p.busy[e.Accel] = b
	} else if p.busy != nil {
		p.retime[e.Accel] += e.RetimedNanos
	}
}

func (p *worldProbe) OnSample(s sim.Sample) {
	p.Tracer.OnSample(s)
	if s.PowerWatts > p.limit {
		p.failf("draw %.6f W above the %.6f W cap at %d", s.PowerWatts, p.limit, s.TimeNanos)
	}
}

// check holds a run's counters to each other and to the probe's (checks 1
// and 2).
func (p *worldProbe) check(t testing.TB, leg string, submitted, served, late, dropped int, peak float64) {
	t.Helper()
	a := p.Attribution()
	if served+late+dropped != submitted || p.Arrived() != submitted || p.Issued() != p.Completed() ||
		p.Completed() != served+late || a.Late != late || a.DeferredOther != 0 ||
		a.Evicted+a.DeferredDeadline+a.DeferredPower != dropped {
		t.Errorf("%s: submitted %d, served %d, late %d, dropped %d; probe arrived %d, issued %d, completed %d, %+v",
			leg, submitted, served, late, dropped, p.Arrived(), p.Issued(), p.Completed(), a)
	}
	if peak > p.limit {
		t.Errorf("%s: peak draw %.6f W above the %.6f W cap", leg, peak, p.limit)
	}
	for _, e := range p.errs {
		t.Errorf("%s: %s", leg, e)
	}
}

// serveRun replays the world through a runtime built from cfg — with Run
// and a reader racing the governor unless it dispatches inline — and returns its
// stats, its orders and the highest draw the reader saw.
func serveRun(t testing.TB, w *world, cfg Config, bad *atomic.Int64) (Stats, *OrderLog, float64) {
	log := NewOrderLog()
	cfg.OnOrders = log.Sink()
	srv, err := New(w.multi(t, bad), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // a failed submit must not leave the lanes running
	var wg sync.WaitGroup
	var peak atomic.Uint64
	if !srv.Inline() {
		wg.Add(2)
		go func() { defer wg.Done(); srv.Run(ctx) }()
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, watts := srv.gov.load(); watts > math.Float64frombits(peak.Load()) {
					peak.Store(math.Float64bits(watts))
				}
				time.Sleep(20 * time.Microsecond)
			}
		}()
	}
	for i, q := range w.queries {
		if err := srv.Submit(q.ArrivalNanos, w.packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	cancel()
	wg.Wait()
	return srv.Stats(), log, math.Float64frombits(peak.Load())
}

// runWorld builds spec's world and runs every leg over it.
func runWorld(t testing.TB, spec worldSpec, tally *worldTally) {
	t.Helper()
	w, again := buildWorld(t, spec), buildWorld(t, spec)
	var bad atomic.Int64
	defer func() {
		if n := bad.Load(); n > 0 {
			t.Errorf("%d predictions made from a non-finite feature or with a non-finite confidence", n)
		}
	}()

	// The simulator, probed (1, 2), bare and rebuilt (4).
	simRun := func(w *world, p sim.Probe) sim.Metrics {
		sys, err := core.NewSystem(w.sys)
		if err != nil {
			t.Fatal(err)
		}
		return sim.RunWithOptions(w.queries, sys, sim.WithProbe(p))
	}
	simP, simP2 := newWorldProbe(w, true), newWorldProbe(again, true)
	m := simRun(w, simP)
	simP.check(t, "sim", m.Total-m.Unaccounted, m.Responded, m.Late, m.Dropped, 0)
	if bare := simRun(w, nil); bare != m {
		t.Errorf("sim: the probe changed the run:\nbare   %+v\nprobed %+v", bare, m)
	}
	if m2 := simRun(again, simP2); m2 != m || !reflect.DeepEqual(simP2.QueryEvents(), simP.QueryEvents()) ||
		!reflect.DeepEqual(simP2.DVFSEvents(), simP.DVFSEvents()) || !reflect.DeepEqual(simP2.Samples(), simP.Samples()) {
		t.Errorf("sim: the same seed replayed differently")
	}

	// The runtime inline on modelled time, probed (1, 2), bare and rebuilt
	// (4), and against the simulator (5).
	modelled := func(w *world, p sim.Probe) (Stats, *OrderLog) {
		cfg := Config{Lanes: w.lanes, ModelledClock: true, MaxQueue: w.maxQueue,
			TAvailNanos: w.tAvail, PrePipelineNanos: core.DefaultPrePipelineNanos, Probe: p}
		w.admission(&cfg, true)
		st, log, _ := serveRun(t, w, cfg, &bad)
		return st, log
	}
	srvP := newWorldProbe(w, true)
	st, log := modelled(w, srvP)
	srvP.check(t, "modelled", st.Submitted, st.Served, st.Late, st.Dropped(), st.MaxPowerWatts)
	if st2, log2 := modelled(again, nil); !reflect.DeepEqual(st2, st) || !reflect.DeepEqual(log2.bySec, log.bySec) {
		t.Errorf("modelled: a bare run of the rebuilt world diverged:\nprobed %+v\nbare   %+v", st, st2)
	}
	a := simP.Attribution()
	if w.lanes == 1 && w.tier == nil && w.policy != "none" && (st.Submitted != m.Total ||
		st.Served != m.Responded || st.Late != m.Late || st.EvictedQueueFull != a.Evicted ||
		st.DeferredDeadline != a.DeferredDeadline || st.DeferredPower != a.DeferredPower ||
		!reflect.DeepEqual(simP.DVFSEvents(), srvP.DVFSEvents())) {
		t.Errorf("sim ≢ serve (%d and %d DVFS events):\nsim   %+v %+v\nserve %+v",
			len(simP.DVFSEvents()), len(srvP.DVFSEvents()), m, a, st)
	}

	// Lossless (3): no deadline, a queue the whole feed fits in, and
	// admission only where the budget holds every lane at its fastest point.
	wantOrders, wantBooks, wantInfs := serialRun(t, w.multi(t, &bad), w.packets)
	logs := []*OrderLog{log}
	for _, cfg := range []Config{{}, {Lanes: w.lanes, MaxQueue: len(w.packets) + 1}} {
		if w.budget == core.Sufficient {
			w.admission(&cfg, false)
		}
		srv, log := runServer(t, w.multi(t, &bad), w.packets, cfg)
		logs = append(logs, log)
		if st := srv.Stats(); st.Served != st.Submitted || st.Errors != 0 || st.Orders != log.Total() {
			t.Errorf("lossless lanes=%d: %+v (%d orders logged)", cfg.Lanes, st, log.Total())
		}
		for sec, want := range wantBooks {
			got, _ := srv.Snapshot(sec, 0)
			if got.Bids != want.Bids || got.Asks != want.Asks || srv.Inferences(sec) != wantInfs[sec] ||
				!slices.Equal(log.Orders(sec), wantOrders[sec]) {
				t.Errorf("lossless lanes=%d: security %d diverged from the serial reference", cfg.Lanes, sec)
			}
		}
	}

	// Concurrent lanes (1, 2): Run on the logical clock, with the world's
	// queue bound or one the whole feed fits in, and a reader racing the
	// governor.
	conP := newWorldProbe(w, false)
	cfg := Config{Lanes: w.lanes, MaxQueue: w.maxQueue, TAvailNanos: w.tAvail, PrePipelineNanos: core.DefaultPrePipelineNanos,
		Probe: conP}
	if w.unbounded {
		cfg.MaxQueue = len(w.packets) + 1
	}
	w.admission(&cfg, true)
	conSt, _, peak := serveRun(t, w, cfg, &bad)
	conP.check(t, "concurrent", conSt.Submitted, conSt.Served, conSt.Late, conSt.Dropped(), max(peak, conSt.MaxPowerWatts))

	if tally != nil {
		tally.note(w, []*sim.Tracer{simP.Tracer, srvP.Tracer}, []Stats{st}, logs)
	}
}

// worldTally counts the worlds that reached each behaviour, so a generator
// that stops reaching one fails TestWorlds instead of passing vacuously.
// runWorld notes only its deterministic legs — the simulator, the inline
// runtime on modelled time and the lossless order logs — so the counts are
// a function of the seeds: the concurrent leg's lanes and governor race,
// and a behaviour it reaches on some schedules (world 5 degrades there on
// a few) would move the count between runs.
type worldTally struct {
	mu      sync.Mutex
	reached map[string]int
}

func (c *worldTally) note(w *world, trs []*sim.Tracer, sts []Stats, logs []*OrderLog) {
	seen := map[string]bool{}
	see := func(what string, ok bool) { seen[what] = seen[what] || ok }
	see(w.policy, true)
	see("N=1", w.lanes == 1)
	see("N>1", w.lanes > 1)
	see("multi-instrument", len(w.models) > 1)
	see("halt gap", w.halted)
	for _, tr := range trs {
		served := tr.Completed() > tr.Attribution().Late
		see("served", served)
		see(w.policy+" served", served)
		for r, what := range map[sim.DVFSReason]string{sim.DVFSSave: "DVFS save", sim.DVFSRedistribute: "DVFS redistribute", sim.DVFSPark: "DVFS park"} {
			see(what, tr.DVFSTransitions(r) > 0)
		}
	}
	for _, st := range sts {
		see("late", st.Late > 0)
		see("evicted", st.EvictedQueueFull > 0)
		see("deferred-deadline", st.DeferredDeadline > 0)
		see("deferred-power", st.DeferredPower > 0)
		see("degrade", st.Degrades > 0)
	}
	for _, log := range logs {
		for _, reqs := range log.bySec {
			for _, r := range reqs {
				see("orders "+r.Side.String(), true)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for what, ok := range seen {
		if ok {
			c.reached[what]++
		}
	}
}

// recorder stands in for a test and keeps a world's failures instead of
// failing one, so the shrinker can try smaller worlds. Fatal ends the
// world's goroutine, as it ends a test's; the fixtures call nothing else.
type recorder struct {
	testing.TB
	mu   sync.Mutex
	msgs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.mu.Lock()
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}
func (r *recorder) Fatalf(format string, args ...any) { r.Errorf(format, args...); runtime.Goexit() }
func (r *recorder) Fatal(args ...any)                 { r.Errorf("%s", fmt.Sprint(args...)); runtime.Goexit() }

// tryWorld runs spec and returns its failures.
func tryWorld(spec worldSpec, tally *worldTally) []string {
	r := &recorder{}
	done := make(chan struct{})
	go func() { defer close(done); runWorld(r, spec, tally) }()
	<-done
	return r.msgs
}

// shrink cuts a failing world — one phase fewer, half the packets, one lane
// or instrument fewer — for as long as it still fails.
func shrink(spec worldSpec, fails []string) (worldSpec, []string) {
	for {
		w := buildWorld(&recorder{}, spec)
		var cuts []worldSpec
		cut := func(ok bool, edit func(c *worldSpec)) {
			if c := spec; ok {
				edit(&c)
				cuts = append(cuts, c)
			}
		}
		for j := range w.phases {
			cut(spec.Drop&(1<<j) == 0 && len(w.src.Script().Phases) > 1, func(c *worldSpec) { c.Drop |= 1 << j })
		}
		cut(len(w.packets) > 16, func(c *worldSpec) { c.Ticks = len(w.packets) / 2 })
		cut(w.lanes > 1, func(c *worldSpec) { c.Lanes = w.lanes - 1 })
		cut(len(w.models) > 1, func(c *worldSpec) { c.Instruments = len(w.models) - 1 })
		shrunk := false
		for _, c := range cuts {
			if f := tryWorld(c, nil); len(f) > 0 {
				spec, fails, shrunk = c, f, true
				break
			}
		}
		if !shrunk {
			return spec, fails
		}
	}
}

// TestWorlds replays the regression worlds, then runs -worlds generated
// ones (seeds 0…N−1) in parallel and, from 16 on, checks that they reached
// every behaviour the tally names.
func TestWorlds(t *testing.T) {
	t.Run("regress", func(t *testing.T) {
		for i, spec := range worldRegressions {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				runWorld(t, spec, nil)
			})
		}
	})
	n := *worldCount
	if n == 0 {
		n = defaultWorlds
	}
	tally := &worldTally{reached: map[string]int{}}
	start := time.Now()
	t.Run("world", func(t *testing.T) {
		for seed := range int64(n) {
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				spec := worldSpec{Seed: seed}
				if fails := tryWorld(spec, tally); len(fails) > 0 {
					small, smallFails := shrink(spec, fails)
					t.Errorf("world %d: %s\nshrunk to %s:\n\t%s\nreplay: add\n\t%v,\nto worldRegressions and run -run 'TestWorlds/regress/<i>'",
						seed, fails[0], buildWorld(t, small), strings.Join(smallFails, "\n\t"), small)
				}
			})
		}
	})
	secs := time.Since(start).Seconds()
	t.Logf("%d worlds in %.2f s: %.1f worlds/s", n, secs, float64(n)/secs)
	var missing, counts []string
	behaviours := []string{"served", "late", "evicted", "deferred-deadline", "deferred-power",
		"degrade", "DVFS save", "DVFS redistribute", "DVFS park", "orders bid", "orders ask",
		"halt gap", "multi-instrument", "N=1", "N>1"}
	for _, p := range worldPolicies {
		behaviours = append(behaviours, p, p+" served")
	}
	for _, what := range behaviours {
		counts = append(counts, fmt.Sprintf("%s %d", what, tally.reached[what]))
		if tally.reached[what] == 0 {
			missing = append(missing, what)
		}
	}
	t.Logf("worlds reaching each behaviour: %s", strings.Join(counts, ", "))
	if n >= 16 && len(missing) > 0 {
		t.Errorf("no world reached: %s", strings.Join(missing, ", "))
	}
}
