package main

import (
	"fmt"
	"reflect"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
	"lighttrader/internal/serve"
	"lighttrader/internal/sim"
)

// replayTAvailNanos is the per-query horizon budget of the replay, the one
// the scenario chaos matrix uses: tight enough that bursts overrun a single
// accelerator, loose enough that the headroom rung stays clean.
const replayTAvailNanos = 1_000_000

// rung is one system configuration of the sim leg, as bench.ScenarioMatrix
// configures them.
type rung struct {
	name   string
	accels int
	power  core.PowerCondition
	tight  bool // 1 W budget and a 32-deep offload queue
}

var rungs = []rung{
	{name: "n1-tight", accels: 1, power: core.Limited, tight: true},
	{name: "n2-limited", accels: 2, power: core.Limited},
	{name: "n4-sufficient", accels: 4, power: core.Sufficient},
}

// serveScenarios are the streams of the serve leg: the two single-instrument
// bursts and the correlated three-instrument shock.
var serveScenarios = []string{"flash-crash", "opening", "multi-shock"}

// simCell is one scenario × rung of the sim leg.
type simCell struct {
	scenario, rung string
	queries        []sim.Query
	sys            *core.System
	budgetWatts    float64
}

// serveCell is one scenario of the serve leg.
type serveCell struct {
	src     *scenario.Source
	packets [][]byte
	queries []sim.Query
	primary core.SystemConfig
	tiers   []serve.TierConfig
}

// replaySetup is everything replay-modelled builds before it measures.
type replaySetup struct {
	sim   []simCell
	serve []serveCell
	// diff is the N=1 differential: one stream through both engines under a
	// budget tight enough that every drop cause fires.
	diffSrc *scenario.Source
	diffCfg core.SystemConfig
}

func wsds() core.Options { return core.Options{WorkloadScheduling: true, DVFSScheduling: true} }

func rungConfig(r rung) (core.SystemConfig, error) {
	cfg, err := core.Configure(nn.NewDeepLOB(), r.accels, r.power, wsds())
	if err != nil {
		return cfg, err
	}
	if r.tight {
		cfg.Sched.PowerBudgetWatts = 1.0
		cfg.MaxQueue = 32
	}
	return cfg, nil
}

func newReplaySetup(seed int64) (*replaySetup, error) {
	rs := &replaySetup{}
	sources := map[string]*scenario.Source{}
	for _, name := range scenario.Names() {
		src, err := scenario.ByName(name, seed)
		if err != nil {
			return nil, err
		}
		sources[name] = src
		queries := src.Queries(replayTAvailNanos)
		for _, r := range rungs {
			cfg, err := rungConfig(r)
			if err != nil {
				return nil, err
			}
			sys, err := core.NewSystem(cfg)
			if err != nil {
				return nil, err
			}
			rs.sim = append(rs.sim, simCell{scenario: name, rung: r.name, queries: queries,
				sys: sys, budgetWatts: cfg.Sched.PowerBudgetWatts})
		}
	}
	for _, name := range serveScenarios {
		src := sources[name]
		if src == nil {
			return nil, fmt.Errorf("scenario %q is not registered", name)
		}
		lanes := len(src.Script().Instruments)
		primary, err := core.Configure(nn.NewDeepLOB(), lanes, core.Limited, wsds())
		if err != nil {
			return nil, err
		}
		cheap, err := core.Configure(nn.NewSizedCNN("perf-tier", 8, 0), lanes, core.Limited, wsds())
		if err != nil {
			return nil, err
		}
		rs.serve = append(rs.serve, serveCell{src: src, packets: src.Packets(),
			queries: src.Queries(replayTAvailNanos), primary: primary,
			tiers: []serve.TierConfig{{Sched: &cheap.Sched}}})
	}
	rs.diffSrc = sources["flash-crash"]
	var err error
	rs.diffCfg, err = rungConfig(rungs[0])
	return rs, err
}

// modelled is every deterministic figure of one pass; two passes must agree
// exactly.
type modelled struct {
	total, responded int
	p99TradingDayN2  int64
	serveStats       []serve.Stats
}

func (m modelled) equal(o modelled) bool { return reflect.DeepEqual(m, o) }

// simPass replays every cell once and returns queries per host second.
func (rs *replaySetup) simPass(m *modelled, res *result) float64 {
	queries := 0
	start := time.Now()
	for i := range rs.sim {
		c := &rs.sim[i]
		met := sim.Run(c.queries, c.sys)
		queries += met.Total
		m.total += met.Total
		m.responded += met.Responded
		if c.scenario == "trading-day" && c.rung == "n2-limited" {
			m.p99TradingDayN2 = met.P99LatencyNanos
		}
		if met.Unaccounted != 0 {
			res.problem("sim %s/%s left %d queries unaccounted", c.scenario, c.rung, met.Unaccounted)
		}
		if w := c.sys.MaxObservedPowerWatts(); w > c.budgetWatts+1e-9 {
			res.problem("sim %s/%s drew %.3f W of a %.3f W budget", c.scenario, c.rung, w, c.budgetWatts)
		}
	}
	return float64(queries) / time.Since(start).Seconds()
}

func (c *serveCell) newServer() (*serve.Server, error) {
	return serve.New(stubMulti(c.src.Script().Instruments), serve.Config{
		Lanes: len(c.src.Script().Instruments), Inline: true, ModelledClock: true, MaxQueue: 64,
		Sched: &c.primary.Sched, Tiers: c.tiers, TAvailNanos: replayTAvailNanos,
		PrePipelineNanos: c.primary.PrePipelineNanos,
	})
}

// servePass replays the serve-leg streams through fresh inline servers,
// timing every Submit, and returns packets per host second. Building the
// servers is not timed.
func (rs *replaySetup) servePass(m *modelled, submitNs *[]int64, res *result) float64 {
	packets := 0
	var busy time.Duration
	for i := range rs.serve {
		c := &rs.serve[i]
		srv, err := c.newServer()
		if err != nil {
			res.problem("serve %s: %v", c.src.Name(), err)
			continue
		}
		start := time.Now()
		prev := start
		for k, q := range c.queries {
			if err := srv.Submit(q.ArrivalNanos, c.packets[k]); err != nil {
				res.problem("serve %s packet %d: %v", c.src.Name(), k, err)
				break
			}
			now := time.Now()
			*submitNs = append(*submitNs, now.Sub(prev).Nanoseconds())
			prev = now
		}
		srv.Drain()
		busy += time.Since(start)
		packets += len(c.queries)
		st := srv.Stats()
		m.serveStats = append(m.serveStats, st)
		if st.Served+st.Late+st.Dropped() != st.Submitted {
			res.problem("serve %s accounting: served %d + late %d + dropped %d != submitted %d",
				c.src.Name(), st.Served, st.Late, st.Dropped(), st.Submitted)
		}
		if st.MaxPowerWatts > c.primary.Sched.PowerBudgetWatts+1e-9 {
			res.problem("serve %s drew %.3f W of a %.3f W budget", c.src.Name(), st.MaxPowerWatts, c.primary.Sched.PowerBudgetWatts)
		}
	}
	return float64(packets) / busy.Seconds()
}

// differential checks that at N=1 the simulator and the serving runtime
// attribute every query to the same fate.
func (rs *replaySetup) differential(res *result) {
	const tAvail = 900_000
	qs := rs.diffSrc.Queries(tAvail)
	sys, err := core.NewSystem(rs.diffCfg)
	if err != nil {
		res.problem("differential: %v", err)
		return
	}
	tr := sim.NewTracer()
	met := sim.RunWithOptions(qs, sys, sim.WithProbe(tr))
	attr := tr.Attribution()
	srv, err := serve.New(stubMulti(rs.diffSrc.Script().Instruments), serve.Config{
		Lanes: 1, Inline: true, ModelledClock: true, MaxQueue: rs.diffCfg.MaxQueue,
		Sched: &rs.diffCfg.Sched, TAvailNanos: tAvail, PrePipelineNanos: rs.diffCfg.PrePipelineNanos,
	})
	if err != nil {
		res.problem("differential: %v", err)
		return
	}
	for k, pkt := range rs.diffSrc.Packets() {
		if err := srv.Submit(qs[k].ArrivalNanos, pkt); err != nil {
			res.problem("differential packet %d: %v", k, err)
			return
		}
	}
	srv.Drain()
	st := srv.Stats()
	simSide := [6]int{met.Total, met.Responded, met.Late, attr.Evicted, attr.DeferredDeadline, attr.DeferredPower}
	serveSide := [6]int{st.Submitted, st.Served, st.Late, st.EvictedQueueFull, st.DeferredDeadline, st.DeferredPower}
	if simSide != serveSide {
		res.problem("N=1 sim and serve disagree (total, served, late, evicted, def-deadline, def-power): %v vs %v", simSide, serveSide)
	}
	if met.Responded == 0 || met.Responded == met.Total {
		res.problem("N=1 differential is vacuous: %d of %d served", met.Responded, met.Total)
	}
}

// tracedSimPass replays the sim leg with a tracer attached, for the event and
// DVFS counts and the cost of observing.
func (rs *replaySetup) tracedSimPass(res *result) (rate float64, events, switches int) {
	queries := 0
	start := time.Now()
	for i := range rs.sim {
		c := &rs.sim[i]
		tr := sim.NewTracer()
		met := sim.RunWithOptions(c.queries, c.sys, sim.WithProbe(tr))
		queries += met.Total
		attr := tr.Attribution()
		events += tr.Arrived() + tr.Issued() + tr.Completed() + attr.Evicted + attr.DeferredDeadline + attr.DeferredPower
		for _, r := range []sim.DVFSReason{sim.DVFSAtIssue, sim.DVFSSave, sim.DVFSRedistribute, sim.DVFSPark} {
			switches += tr.DVFSTransitions(r)
		}
	}
	return float64(queries) / time.Since(start).Seconds(), events, switches
}

// runReplay runs replay-modelled: both legs pass after pass until the
// measuring time is spent, every pass checked against the first.
func runReplay(o runOpts) (*result, error) {
	seed, seconds, trace := o.seed, o.seconds, o.trace
	res := newResult("replay-modelled")
	var rs *replaySetup
	var setups []float64
	for i := 0; i < o.rounds; i++ {
		start := time.Now()
		var err error
		if rs, err = newReplaySetup(seed); err != nil {
			return nil, fmt.Errorf("replay-modelled: set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.set("setup_s", calmLow(setups))
	rs.differential(res)

	measure := time.Duration(seconds * float64(time.Second))
	staged := time.Duration(0)
	if trace {
		staged = measure / 4
		measure -= staged + measure/5
	}
	var first modelled
	var simRates, serveRates, submitP50, submitP99 []float64
	var submitNs []int64
	submits := 0
	deadline := time.Now().Add(measure)
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		var m modelled
		simRates = append(simRates, rs.simPass(&m, res))
		submitNs = submitNs[:0]
		serveRates = append(serveRates, rs.servePass(&m, &submitNs, res))
		d := summarize(submitNs)
		submitP50, submitP99 = append(submitP50, d.p50/1e3), append(submitP99, d.p99/1e3)
		submits += d.n
		if pass == 0 {
			first = m
			res.attempted = m.total
			for _, st := range m.serveStats {
				res.attempted += st.Submitted
			}
		} else if !m.equal(first) {
			res.problem("pass %d produced different modelled numbers than pass 0", pass)
		}
	}

	// Every figure is the mean over the better half of the passes, like the
	// rounds of a wire run.
	res.set("t2t_hot_p50_us", calmLow(submitP50))
	res.set("t2t_hot_p99_us", calmLow(submitP99))
	res.samples["t2t_hot_p50_us"], res.samples["t2t_hot_p99_us"] = submits, submits
	res.set("throughput_per_s", calmHigh(simRates))
	res.samples["throughput_per_s"] = len(simRates)
	res.set("serve_replay_queries_per_s", calmHigh(serveRates))
	res.set("modelled_response_share", float64(first.responded)/float64(first.total))
	res.set("modelled_t2t_p99_us", float64(first.p99TradingDayN2)/1e3)
	var sub, late, evicted, deferred, saves, redis, batches, batched float64
	for _, st := range first.serveStats {
		sub += float64(st.Submitted)
		late += float64(st.Late)
		evicted += float64(st.EvictedQueueFull)
		deferred += float64(st.DeferredDeadline + st.DeferredPower)
		saves += float64(st.DVFSSaves)
		redis += float64(st.DVFSRedistributes)
		batches += float64(st.Batches)
		batched += st.MeanBatch * float64(st.Batches)
	}
	if sub > 0 && batches > 0 {
		res.set("serve.batch_mean", batched/batches)
		res.set("serve.late_share", late/sub)
		res.set("serve.evicted_share", evicted/sub)
		res.set("serve.deferred_share", deferred/sub)
		res.set("serve.gov_saves", saves)
		res.set("serve.gov_redistributes", redis)
	}

	if trace {
		tracedRate, events, switches := rs.tracedSimPass(res)
		res.set("sim.events_per_query", float64(events)/float64(first.total))
		res.set("core.dvfs_switches", float64(switches))
		res.set("sim.probe_overhead_share", calmHigh(simRates)/tracedRate-1)
		st, err := newStream(wireScript(4), seed)
		if err != nil {
			return nil, err
		}
		runStaged(st, seed, staged, res)
	}
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}
