package lighttrader

// The context-aware facade. New, NewServer and BacktestContext are the
// documented entry points; configuration flows through functional options so
// one vocabulary (WithAccelerators, WithPowerBudget, WithWorkloadScheduling,
// WithProbe, ...) covers both the back-test simulator and the live serving
// runtime.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sched"
	"lighttrader/internal/serve"
	"lighttrader/internal/signal"
	"lighttrader/internal/sim"
)

// Probe observes a run's query lifecycle, DVFS transitions and load samples
// (attach with WithProbe).
type Probe = sim.Probe

// Tracer is the built-in Probe: per-cause miss attribution plus JSONL event
// export.
type Tracer = sim.Tracer

// NewTracer returns an empty Tracer.
func NewTracer() *Tracer { return sim.NewTracer() }

// Scheduler is a pluggable scheduling strategy: the engine asks it, once per
// idle accelerator, what to issue. See WithScheduler.
type Scheduler = sched.Scheduler

// SchedulerFactory builds a Scheduler bound to a scheduling config. Engines
// invoke it at construction/reset time (once per serving lane, once per
// simulator reset), so stateful policies start each run fresh.
type SchedulerFactory = sched.Factory

// SchedContext is the observed state one scheduling decision is made from.
type SchedContext = sched.SchedContext

// SchedDecision is a Scheduler's answer: the issue plus the explained verdict.
type SchedDecision = sched.Decision

// SchedulerByName resolves a registered policy name ("ppw", "fcfs", "greedy",
// "sjf", "qtable") to its factory — the -scheduler flag vocabulary.
func SchedulerByName(name string) (SchedulerFactory, error) { return sched.FactoryByName(name) }

// SchedulerNames returns the registered scheduling policy names, sorted.
func SchedulerNames() []string { return sched.SchedulerNames() }

// Scenario is the unified traffic source: a seeded, deterministic generator
// of composable market regimes emitting real SBE packet streams. One
// Scenario drives every deployment target byte-identically — the back-test
// simulator via BacktestContext(WithScenario(...)), the serving runtime via
// ReplayScenario, and a live venue via its raw Packets().
type Scenario = scenario.Source

// ScenarioScript is a scenario's phase program: the listed market plus the
// timed regime sequence (see NewScenario for custom scripts).
type ScenarioScript = scenario.Script

// ScenarioPhase is one timed regime of a scenario day.
type ScenarioPhase = scenario.Phase

// ScenarioByName resolves a registered scenario name ("quiet", "opening",
// "flash-crash", "halt-resume", "thin-book", "multi-shock", "trading-day")
// to a seeded source — the -scenario flag vocabulary, same rule as
// SchedulerByName.
func ScenarioByName(name string, seed int64) (*Scenario, error) {
	return scenario.ByName(name, seed)
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string { return scenario.Names() }

// NewScenario builds a source from a custom phase script.
func NewScenario(name string, script ScenarioScript, seed int64) (*Scenario, error) {
	return scenario.New(name, script, seed)
}

// ReplayScenario replays a scenario's byte stream through a serving
// runtime at its recorded arrival times and drains the lanes: the serving
// analogue of BacktestContext(WithScenario(...)). The caller reads the
// outcome from Server.Stats().
func ReplayScenario(srv *Server, src *Scenario) error {
	for _, tk := range src.Ticks() {
		if err := srv.Submit(tk.TimeNanos, tk.Packet); err != nil {
			return err
		}
	}
	srv.Drain()
	return nil
}

// MultiPipeline is the multi-instrument subscription set: one functional
// pipeline per symbol over a shared market-data channel.
type MultiPipeline = core.MultiPipeline

// NewMultiPipeline returns an empty subscription set; Add instruments, then
// serve it with NewServer (or drive it serially with OnPacket).
func NewMultiPipeline() *MultiPipeline { return core.NewMultiPipeline() }

// Server is the concurrent multi-symbol serving runtime: worker lanes (one
// per modelled accelerator) applying Algorithm 1's batch/deadline decision
// to live queries.
type Server = serve.Server

// ServeStats is the runtime's miss-attribution counter set.
type ServeStats = serve.Stats

// OrderSink receives the orders one instrument generated from one dispatch.
type OrderSink = serve.OrderSink

// OrderLog is a thread-safe OrderSink recording per-instrument streams.
type OrderLog = serve.OrderLog

// NewOrderLog returns an empty order log.
func NewOrderLog() *OrderLog { return serve.NewOrderLog() }

// TradeSignal is one published prediction: action, confidence, horizon and
// the top-of-book snapshot it was made from, plus arrival/publish
// timestamps and the symbol's monotonic sequence number.
type TradeSignal = signal.TradeSignal

// SignalGateway is the signal-distribution tier: sharded, conflated
// fan-out of every served symbol's predictions to in-process subscriptions
// (SignalGateway.Subscribe) and TCP wire clients (SignalGateway.Serve).
// Attach one to a serving runtime with WithSignalGateway.
type SignalGateway = signal.Gateway

// SignalGatewayConfig parameterises NewSignalGateway (shard count, wire
// heartbeat/write-deadline tuning). The zero value selects the defaults.
type SignalGatewayConfig = signal.Config

// SignalSubscription is one conflated in-process subscription
// (SignalGateway.Subscribe): receive from C(), read conflation drops from
// Drops(), Close() to detach. The stream is latest-value-wins — a slow
// consumer always finds the newest signal, never a backlog.
type SignalSubscription = signal.Subscription

// SignalStats is the gateway's counter set (published, delivered,
// conflation drops, subscriber and connection gauges).
type SignalStats = signal.Stats

// NewSignalGateway builds a signal gateway and starts its fan-out shards.
// The caller owns its lifecycle (Close it after the server drains).
func NewSignalGateway(cfg SignalGatewayConfig) (*SignalGateway, error) {
	return signal.NewGateway(cfg)
}

// SignalClient is the TCP subscriber side of the wire protocol: it dials a
// gateway, subscribes its symbols, decodes the conflated stream, and
// reconnects with capped exponential backoff (see examples/signals).
type SignalClient = signal.Client

// SignalClientConfig parameterises NewSignalClient (address, symbols, the
// per-signal callback, heartbeat and backoff).
type SignalClientConfig = signal.ClientConfig

// NewSignalClient builds a wire subscriber; call Run to connect and
// consume.
func NewSignalClient(cfg SignalClientConfig) *SignalClient {
	return signal.NewClient(cfg)
}

// config is the resolved option set shared by New, NewServer and
// BacktestContext.
type config struct {
	accels    int
	power     PowerCondition
	schedOpts SchedulerOptions

	probe         Probe
	deadline      time.Duration
	maxQueue      int
	inline        bool
	modelledClock bool
	sink          OrderSink
	signals       *SignalGateway
	scenario      *Scenario
	zoo           []*Model
	degrade       bool
}

// Option configures New, NewServer or BacktestContext. Options that do not
// apply to an entry point are ignored by it (WithOrderSink has no meaning
// in a back-test).
type Option func(*config)

func defaults() config {
	return config{accels: 4, power: Sufficient}
}

// resolve applies opts over the defaults. Selecting a scheduler or a model
// degrade ladder implies admission control, so either enables workload
// scheduling when neither scheduling feature was requested.
func resolve(opts []Option) config {
	cfg := defaults()
	for _, o := range opts {
		o(&cfg)
	}
	if (cfg.schedOpts.Scheduler != nil || cfg.degrade) && !cfg.admission() {
		cfg.schedOpts.WorkloadScheduling = true
	}
	return cfg
}

// admission reports whether any scheduling feature is on.
func (c config) admission() bool {
	return c.schedOpts.WorkloadScheduling || c.schedOpts.DVFSScheduling
}

// WithAccelerators sets the modelled accelerator count: simulated
// accelerators in a back-test system, worker lanes in a serving runtime
// (one logical lane per accelerator). Default 4.
func WithAccelerators(n int) Option { return func(c *config) { c.accels = n } }

// WithPowerBudget selects the card power envelope (Sufficient or Limited,
// or a custom PowerCondition). Default Sufficient.
func WithPowerBudget(p PowerCondition) Option { return func(c *config) { c.power = p } }

// WithWorkloadScheduling enables Algorithm 1 (PPW-driven batch and DVFS
// selection under the deadline).
func WithWorkloadScheduling() Option {
	return func(c *config) { c.schedOpts.WorkloadScheduling = true }
}

// WithDVFSScheduling enables Algorithm 2 (DVFS power redistribution).
func WithDVFSScheduling() Option {
	return func(c *config) { c.schedOpts.DVFSScheduling = true }
}

// WithScheduler swaps the scheduling strategy itself (default: the paper's
// proactive PPW scheduler). Resolve named policies with SchedulerByName.
// Selecting a scheduler implies admission control, so it enables workload
// scheduling when neither scheduling feature was requested.
func WithScheduler(f SchedulerFactory) Option {
	return func(c *config) { c.schedOpts.Scheduler = f }
}

// WithProbe attaches an observability probe: to the simulator in
// BacktestContext, to the runtime in NewServer.
func WithProbe(p Probe) Option { return func(c *config) { c.probe = p } }

// WithDeadline grants served queries a per-query time budget (t_avail);
// zero means no deadline. Serving entry points only.
func WithDeadline(d time.Duration) Option { return func(c *config) { c.deadline = d } }

// WithMaxQueue bounds each lane's queue (default 64); an arrival at a full
// queue evicts its oldest query. Serving only.
func WithMaxQueue(n int) Option { return func(c *config) { c.maxQueue = n } }

// WithInline runs the serving runtime inline on the caller's goroutine —
// the degenerate serial configuration: a packet's orders have reached the
// order sink before its Submit call returns.
func WithInline() Option { return func(c *config) { c.inline = true } }

// WithModelledClock runs serving admission and completion on modelled
// arrival time instead of the wall clock: decisions read each query's
// submitted arrival timestamp and batches complete at their scheduled
// latency-table instants, so a replayed trace reproduces the back-test
// simulator's timing exactly regardless of host speed. Requires
// Algorithm-1 admission. Serving only.
func WithModelledClock() Option { return func(c *config) { c.modelledClock = true } }

// WithOrderSink routes generated orders to sink. Serving only.
func WithOrderSink(sink OrderSink) Option { return func(c *config) { c.sink = sink } }

// WithScenario selects a scenario as the run's traffic source. In
// BacktestContext it replaces the ticks argument (pass nil ticks); resolve
// named scenarios with ScenarioByName or build custom scripts with
// NewScenario.
func WithScenario(src *Scenario) Option { return func(c *config) { c.scenario = src } }

// WithModelZoo supplies the serving runtime's candidate set of cheaper
// models for degrade-to-cheaper-model switching (build variants with
// BuildZoo). NewServer compiles each candidate for the accelerator, keeps
// the ones strictly cheaper than the primary model, and wires them into a
// cost-descending ladder: when a query is deadline- or power-infeasible on
// the full model — even after the power governor's saving step — admission
// re-runs down the ladder and answers on the first rung that fits instead
// of dropping. Degraded answers are counted in ServeStats.Degrades and
// ServeStats.TierIssues, never hidden. Implies WithModelDegradation and
// workload scheduling. Serving only.
func WithModelZoo(models ...*Model) Option {
	return func(c *config) { c.zoo, c.degrade = models, true }
}

// WithModelDegradation arms degrade-to-cheaper-model switching with a
// default two-rung CNN ladder (width 16 and width 8 rungs of the M1…M5
// family). Use WithModelZoo to choose the candidate models instead. Implies
// workload scheduling. Serving only.
func WithModelDegradation() Option { return func(c *config) { c.degrade = true } }

// WithSignalGateway attaches a signal-distribution gateway to the serving
// runtime: every subscription's inference results are published to the
// gateway's conflated per-symbol streams, served over TCP by
// SignalGateway.Serve. Serving only.
func WithSignalGateway(gw *SignalGateway) Option { return func(c *config) { c.signals = gw } }

// New assembles a simulated LightTrader appliance from options:
//
//	sys, err := lighttrader.New(lighttrader.NewDeepLOB(),
//	    lighttrader.WithAccelerators(4),
//	    lighttrader.WithPowerBudget(lighttrader.Limited),
//	    lighttrader.WithWorkloadScheduling(),
//	    lighttrader.WithDVFSScheduling())
//
// Defaults: 4 accelerators, the sufficient power envelope, both scheduler
// features off, BF16.
func New(m *Model, opts ...Option) (System, error) {
	cfg := resolve(opts)
	syscfg, err := core.Configure(m, cfg.accels, cfg.power, cfg.schedOpts)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(syscfg)
}

// NewServer assembles the concurrent serving runtime over a subscription
// set. WithAccelerators sets the lane count (WithInline selects the serial
// degenerate configuration instead); WithWorkloadScheduling/
// WithDVFSScheduling enable online Algorithm-1 admission with latency
// tables compiled for the first subscription's model under WithPowerBudget
// (DVFS scheduling also arms the online Algorithm-2 power governor);
// WithModelZoo/WithModelDegradation wire a cost-sorted ladder of cheaper zoo
// models that admission falls back to when the full model is infeasible;
// WithDeadline, WithMaxQueue, WithModelledClock, WithProbe and
// WithOrderSink configure the runtime directly. Start lanes with
// Server.Run; feed packets with Server.Submit.
func NewServer(mp *MultiPipeline, opts ...Option) (*Server, error) {
	cfg := resolve(opts)
	scfg := serve.Config{
		MaxQueue:      cfg.maxQueue,
		TAvailNanos:   cfg.deadline.Nanoseconds(),
		ModelledClock: cfg.modelledClock,
		Probe:         cfg.probe,
		OnOrders:      cfg.sink,
		Signals:       cfg.signals,
	}
	if !cfg.inline {
		scfg.Lanes = cfg.accels
	}
	if cfg.admission() && mp != nil && mp.Len() > 0 {
		lanes := scfg.Lanes
		if lanes == 0 {
			lanes = 1
		}
		syscfg, err := core.Configure(mp.Pipelines()[0].Model(), lanes, cfg.power, cfg.schedOpts)
		if err != nil {
			return nil, err
		}
		scfg.Sched = &syscfg.Sched
		scfg.Scheduler = syscfg.Scheduler
		scfg.PrePipelineNanos = syscfg.PrePipelineNanos
		if cfg.degrade {
			tiers, err := buildTiers(cfg, &syscfg.Sched, lanes)
			if err != nil {
				return nil, err
			}
			scfg.Tiers = tiers
		}
	}
	return serve.New(mp, scfg)
}

// defaultZoo is WithModelDegradation's fallback ladder: two rungs of the
// M1…M5 CNN family, cheap enough to sit under every benchmark primary.
func defaultZoo() []*Model {
	return []*Model{
		MustBuildZoo(SizedCNNSpec("degrade-m", 16, 0)),
		MustBuildZoo(SizedCNNSpec("degrade-s", 8, 0)),
	}
}

// buildTiers compiles the zoo candidates onto the primary's accelerator
// configuration, keeps the ones strictly cheaper than the primary at the
// static batch-1 operating point, and orders them cost-descending — the
// first-fit rung order that loses the least accuracy per recovered answer.
func buildTiers(cfg config, primary *sched.Config, lanes int) ([]serve.TierConfig, error) {
	zoo := cfg.zoo
	if len(zoo) == 0 {
		zoo = defaultZoo()
	}
	primaryTT := primary.TotalNanos(primary.StaticDVFS, 1)
	type rung struct {
		tier serve.TierConfig
		tt   int64
	}
	var rungs []rung
	for _, m := range zoo {
		syscfg, err := core.Configure(m, lanes, cfg.power, cfg.schedOpts)
		if err != nil {
			return nil, err
		}
		tierSched := syscfg.Sched
		tt := tierSched.TotalNanos(tierSched.StaticDVFS, 1)
		if tt >= primaryTT {
			continue // not cheaper than the primary: never a useful rung
		}
		rungs = append(rungs, rung{serve.TierConfig{Sched: &tierSched, Model: m}, tt})
	}
	if len(rungs) == 0 {
		return nil, fmt.Errorf("lighttrader: no zoo model is cheaper than the primary at batch 1 (%d ns); degradation would never fire", primaryTT)
	}
	sort.SliceStable(rungs, func(i, j int) bool { return rungs[i].tt > rungs[j].tt })
	tiers := make([]serve.TierConfig, len(rungs))
	for i, r := range rungs {
		tiers[i] = r.tier
	}
	return tiers, nil
}

// BacktestContext is Backtest under a context: cancellation stops the
// replay at the next arrival boundary and returns metrics over the
// truncated prefix — every counted query is fully accounted, none are torn.
// WithProbe attaches an observer; WithScenario substitutes a scenario's
// stream for the ticks argument (pass nil ticks); other options are
// ignored.
func BacktestContext(ctx context.Context, ticks []Tick, tAvail time.Duration, sys System, opts ...Option) Metrics {
	cfg := resolve(opts)
	if ticks == nil && cfg.scenario != nil {
		ticks = cfg.scenario.Ticks()
	}
	ro := []sim.RunOption{sim.WithContext(ctx)}
	if cfg.probe != nil {
		ro = append(ro, sim.WithProbe(cfg.probe))
	}
	return sim.RunWithOptions(sim.QueriesFromTicks(ticks, tAvail.Nanoseconds()), sys, ro...)
}
