// Command lighttrader runs a back-test of the LightTrader system (or a
// baseline) against a market scenario or a recorded tick trace and prints the
// response-rate / latency metrics. With -serve it instead drives the
// concurrent multi-symbol serving runtime (online Algorithm-1 batching
// across worker lanes) over a shared feed, reports the modelled
// throughput scaling and checks that every symbol places the same orders
// at every lane count.
//
// Usage:
//
//	lighttrader -model deeplob -accels 4 -power sufficient -ws -ds
//	lighttrader -trace ticks.lttr -system gpu
//	lighttrader -tavail 20ms -seed 7
//	lighttrader -scenario flash-crash -seed 3 -power limited -ws -ds
//	lighttrader -serve -symbols 8 -accels 8
//	lighttrader -signal-listen :9000 -symbols 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"lighttrader"
	"lighttrader/internal/prof"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "lighttrader:", err)
		os.Exit(1)
	}
}

// run parses args and runs the chosen mode, printing to stdout. ctx ends
// -signal-listen, and cuts a back-test or the -serve sweep short.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lighttrader", flag.ContinueOnError)
	model := fs.String("model", "deeplob", "DNN model: cnn, translob, deeplob")
	system := fs.String("system", "lighttrader", "system under test: lighttrader, gpu, fpga")
	accels := fs.Int("accels", 4, "number of AI accelerators (worker lanes in -serve mode)")
	power := fs.String("power", lighttrader.Sufficient.Name, "power condition: "+lighttrader.Sufficient.Name+", "+lighttrader.Limited.Name)
	ws := fs.Bool("ws", false, "enable workload scheduling (Algorithm 1 batching)")
	ds := fs.Bool("ds", false, "enable DVFS scheduling (Algorithm 2)")
	scheduler := fs.String("scheduler", "", "scheduling strategy: "+strings.Join(lighttrader.SchedulerNames(), ", ")+" (default ppw; implies -ws)")
	ticks := fs.Int("ticks", 40000, "total packets in -serve and -signal-listen mode")
	seed := fs.Int64("seed", 1, "scenario seed")
	tracePath := fs.String("trace", "", "replay a recorded trace file instead of the scenario")
	scenarioName := fs.String("scenario", "trading-day", "market scenario to replay: "+strings.Join(lighttrader.ScenarioNames(), ", "))
	tavail := fs.Duration("tavail", 20*time.Millisecond, "available time per query (t_avail); back-test only: -serve and -signal-listen do not read it")
	serveMode := fs.Bool("serve", false, "drive the concurrent serving runtime instead of a back-test")
	symbols := fs.Int("symbols", 8, "subscribed instruments (-serve mode)")
	signalListen := fs.String("signal-listen", "", "serve the live trade-signal stream on this TCP address (paced scenario feed; Ctrl-C to stop)")
	profile := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var pc lighttrader.PowerCondition
	switch *power {
	case lighttrader.Sufficient.Name:
		pc = lighttrader.Sufficient
	case lighttrader.Limited.Name:
		pc = lighttrader.Limited
	default:
		return fmt.Errorf("unknown -power %q (want %s or %s)", *power, lighttrader.Sufficient.Name, lighttrader.Limited.Name)
	}

	stopProf, err := profile.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	var schedOpt []lighttrader.Option
	if *scheduler != "" {
		factory, err := lighttrader.SchedulerByName(*scheduler)
		if err != nil {
			return err
		}
		schedOpt = append(schedOpt, lighttrader.WithScheduler(factory))
	}

	if (*serveMode || *signalListen != "") && (*symbols < 1 || *accels < 1) {
		return fmt.Errorf("-serve and -signal-listen need -symbols >= 1 and -accels >= 1")
	}
	if *signalListen != "" {
		return runSignalListen(ctx, stdout, *signalListen, *symbols, *accels, *ticks, *seed)
	}

	if *serveMode {
		return runServe(ctx, stdout, *symbols, *accels, *ticks, *seed, pc, *ds, schedOpt)
	}

	m, err := pickModel(*model)
	if err != nil {
		return err
	}
	trace, err := loadTrace(*tracePath, *scenarioName, *seed)
	if err != nil {
		return err
	}

	var sys lighttrader.System
	switch strings.ToLower(*system) {
	case "lighttrader", "lt":
		opts := []lighttrader.Option{
			lighttrader.WithAccelerators(*accels),
			lighttrader.WithPowerBudget(pc),
		}
		if *ws {
			opts = append(opts, lighttrader.WithWorkloadScheduling())
		}
		if *ds {
			opts = append(opts, lighttrader.WithDVFSScheduling())
		}
		opts = append(opts, schedOpt...)
		if sys, err = lighttrader.New(m, opts...); err != nil {
			return err
		}
	case "gpu":
		sys = lighttrader.NewGPUBaseline(m)
	case "fpga":
		sys = lighttrader.NewFPGABaseline(m)
	default:
		return fmt.Errorf("unknown system %q", *system)
	}

	start := time.Now()
	// An interrupt ends the replay early; the metrics cover what it reached.
	metrics := lighttrader.BacktestContext(ctx, trace, *tavail, sys)
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "system          %s\n", sys.Name())
	fmt.Fprintf(stdout, "trace           %d ticks over %.1f s (t_avail %v)\n",
		metrics.Total, traceSpanSecs(trace), *tavail)
	fmt.Fprintf(stdout, "response rate   %.2f%%   (responded %d, deferred %d, late %d)\n",
		100*metrics.ResponseRate, metrics.Responded, metrics.Dropped, metrics.Late)
	fmt.Fprintf(stdout, "miss rate       %.2f%%\n", 100*metrics.MissRate)
	fmt.Fprintf(stdout, "tick-to-trade   mean %s  p50 %s  p99 %s  max %s\n",
		dur(metrics.MeanLatencyNanos), dur(metrics.P50LatencyNanos),
		dur(metrics.P99LatencyNanos), dur(metrics.MaxLatencyNanos))
	fmt.Fprintf(stdout, "mean batch      %.2f\n", metrics.MeanBatch)
	if metrics.EnergyJoules > 0 {
		fmt.Fprintf(stdout, "energy          %.1f J (avg %.1f W)\n", metrics.EnergyJoules, metrics.AvgPowerWatts)
	}
	fmt.Fprintf(stdout, "simulated in    %v\n", elapsed.Round(time.Millisecond))
	return nil
}

// runServe replays one shared multi-instrument feed through the serving
// runtime twice — one lane, then the requested lane count — and compares
// the modelled makespan (Σ issued batch latency per lane, max over lanes).
// Queues are pre-filled before the lanes start so the Algorithm-1 batch
// decisions, and therefore the modelled times, are deterministic. It then
// checks the runtime's defining property, that every symbol places the
// same orders at both lane counts, and fails if one does not.
func runServe(ctx context.Context, stdout io.Writer, symbols, lanes, total int, seed int64, pc lighttrader.PowerCondition, ds bool, schedOpt []lighttrader.Option) error {
	feed, err := symbolFeed(symbols, total, seed)
	if err != nil {
		return err
	}

	replay := func(n int) (*lighttrader.Server, *lighttrader.OrderLog, time.Duration, error) {
		// Fresh pipelines per run: NewSizedCNN self-seeds from its shape, so
		// every run starts from identical weights and identical empty books.
		mp, err := symbolPipelines(symbols, feed)
		if err != nil {
			return nil, nil, 0, err
		}
		log := lighttrader.NewOrderLog()
		opts := []lighttrader.Option{
			lighttrader.WithAccelerators(n),
			lighttrader.WithPowerBudget(pc),
			lighttrader.WithWorkloadScheduling(),
			lighttrader.WithMaxQueue(len(feed) + 1),
			lighttrader.WithOrderSink(log.Sink()),
		}
		if ds {
			opts = append(opts, lighttrader.WithDVFSScheduling())
		}
		opts = append(opts, schedOpt...)
		srv, err := lighttrader.NewServer(mp, opts...)
		if err != nil {
			return nil, nil, 0, err
		}
		for _, tk := range feed {
			if err := srv.Submit(tk.TimeNanos, tk.Packet); err != nil {
				return nil, nil, 0, err
			}
		}
		// The lanes outlive ctx until Drain returns: a lane stopped early
		// would leave Drain waiting on its queue.
		lanesCtx, stopLanes := context.WithCancel(context.WithoutCancel(ctx))
		done := make(chan struct{})
		start := time.Now()
		go func() { defer close(done); _ = srv.Run(lanesCtx) }()
		srv.Drain()
		wall := time.Since(start)
		stopLanes()
		<-done
		return srv, log, wall, nil
	}

	sched := "WS"
	if ds {
		sched += "+DS"
	}
	fmt.Fprintf(stdout, "serving: %d symbols, %d packets, sized CNN (8 ch), %s, %s power\n\n",
		symbols, len(feed), sched, pc.Name)
	fmt.Fprintf(stdout, "%5s %15s %6s %8s %11s %7s %18s %10s\n",
		"lanes", "served", "drops", "batches", "mean batch", "orders", "modelled makespan", "wall")
	sweep := []int{1}
	if lanes > 1 {
		sweep = append(sweep, lanes)
	}
	var base, last *lighttrader.OrderLog
	var baseSpan int64
	for _, n := range sweep {
		if err := ctx.Err(); err != nil {
			return err
		}
		srv, orders, wall, err := replay(n)
		if err != nil {
			return err
		}
		st, makespan := srv.Stats(), slices.Max(srv.ModelledBusyNanos())
		fmt.Fprintf(stdout, "%5d %8d/%-6d %6d %8d %11.2f %7d %18v %10v\n",
			n, st.Served, st.Submitted, st.Dropped(), st.Batches, st.MeanBatch,
			orders.Total(), time.Duration(makespan).Round(time.Microsecond),
			wall.Round(time.Millisecond))
		if n == 1 {
			base, baseSpan = orders, makespan
		} else if baseSpan > 0 && makespan > 0 {
			fmt.Fprintf(stdout, "      modelled speedup at %d lanes: %.2fx\n",
				n, float64(baseSpan)/float64(makespan))
		}
		last = orders
	}
	fmt.Fprintln(stdout, "\nModelled makespan is the accelerator-time model; wall clock depends on host cores.")
	if last == base {
		return nil
	}

	fmt.Fprintln(stdout)
	diverged := 0
	for id := int32(1); id <= int32(symbols); id++ {
		a, b := base.Orders(id), last.Orders(id)
		verdict := "identical"
		if !slices.Equal(a, b) {
			verdict = "DIVERGED"
			diverged++
		}
		fmt.Fprintf(stdout, "parity SIM%-3d %3d orders at 1 lane, %3d at %d lanes: %s\n",
			id, len(a), len(b), lanes, verdict)
	}
	if diverged > 0 {
		return fmt.Errorf("-serve: %d of %d symbols placed different orders at 1 and %d lanes", diverged, symbols, lanes)
	}
	return nil
}

// runSignalListen is the live signal-distribution mode: the serving
// runtime replays a paced multi-instrument scenario feed with the signal
// gateway attached, while the gateway serves the conflated trade-signal
// stream to TCP subscribers on addr (see examples/signals for a client).
// After the replay the gateway keeps serving — late joiners warm-start on
// each symbol's latest value — until ctx is done; a ctx done mid-replay
// cuts the replay short.
func runSignalListen(ctx context.Context, stdout io.Writer, addr string, symbols, lanes, total int, seed int64) error {
	feed, err := symbolFeed(symbols, total, seed)
	if err != nil {
		return err
	}
	mp, err := symbolPipelines(symbols, feed)
	if err != nil {
		return err
	}

	gw, err := lighttrader.NewSignalGateway(lighttrader.SignalGatewayConfig{})
	if err != nil {
		return err
	}
	defer gw.Close()
	log := lighttrader.NewOrderLog()
	srv, err := lighttrader.NewServer(mp,
		lighttrader.WithAccelerators(lanes),
		lighttrader.WithWorkloadScheduling(),
		lighttrader.WithMaxQueue(len(feed)+1),
		lighttrader.WithOrderSink(log.Sink()),
		lighttrader.WithSignalGateway(gw),
	)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The lanes and the gateway outlive ctx until the queues drain.
	live, stop := context.WithCancel(context.WithoutCancel(ctx))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = gw.Serve(live, ln) }()
	go func() { defer wg.Done(); _ = srv.Run(live) }()
	defer func() {
		stop()
		gw.Close()
		wg.Wait()
	}()

	fmt.Fprintf(stdout, "signal gateway listening on %s (%d symbols, %d lanes, %d shards)\n",
		ln.Addr(), symbols, lanes, gw.Shards())
	fmt.Fprintf(stdout, "replaying %d packets paced at ~5k/s; Ctrl-C to stop\n", len(feed))

	pace := time.NewTicker(200 * time.Microsecond)
	defer pace.Stop()
replay:
	for _, tk := range feed {
		select {
		case <-ctx.Done():
			break replay
		case <-pace.C:
		}
		if err := srv.Submit(tk.TimeNanos, tk.Packet); err != nil {
			return err
		}
	}
	srv.Drain()
	gw.Drain()

	st := srv.Stats()
	gs := gw.Stats()
	fmt.Fprintf(stdout, "\nreplay done: served %d/%d, orders %d\n", st.Served, st.Submitted, log.Total())
	fmt.Fprintf(stdout, "signals: published %d, delivered %d, conflation drops %d\n",
		gs.Published, gs.Delivered, gs.ConflationDrops)
	fmt.Fprintf(stdout, "conns: open %d, total %d, dropped %d; subscribers %d\n",
		gs.ConnsOpen, gs.ConnsTotal, gs.ConnsDropped, gs.Subscribers)
	fmt.Fprintln(stdout, "gateway still serving (late joiners warm-start); Ctrl-C to exit")
	<-ctx.Done()
	return nil
}

// symbolFeed is the -serve/-signal-listen feed: the quiet scenario's drift
// listed on symbols instruments SIM1…SIMn (security ids 1…n), one stream
// cut to total packets — at least 300 per instrument on average, enough to
// fill the model window and still measure.
func symbolFeed(symbols, total int, seed int64) ([]lighttrader.Tick, error) {
	total = max(total, 300*symbols)
	src, err := lighttrader.ScenarioByName("quiet", seed)
	if err != nil {
		return nil, err
	}
	sc := src.Script()
	ins := sc.Instruments[0]
	sc.Instruments = sc.Instruments[:0]
	for i := 0; i < symbols; i++ {
		ins.SecurityID, ins.Symbol = int32(i+1), fmt.Sprintf("SIM%d", i+1)
		sc.Instruments = append(sc.Instruments, ins)
	}
	// The drift runs at ≈ 420 packets/s; 300/s leaves margin for the cut.
	sc.Phases[0].DurationSecs = float64(total) / 300
	if src, err = lighttrader.NewScenario("symbols", sc, seed); err != nil {
		return nil, err
	}
	feed := src.Ticks()
	return feed[:min(total, len(feed))], nil
}

// symbolPipelines subscribes SIM1…SIMn, each calibrated on its own ticks
// of the feed.
func symbolPipelines(symbols int, feed []lighttrader.Tick) (*lighttrader.MultiPipeline, error) {
	mp := lighttrader.NewMultiPipeline()
	for i := 0; i < symbols; i++ {
		sym := fmt.Sprintf("SIM%d", i+1)
		var own []lighttrader.Tick
		for _, tk := range feed {
			if tk.Snapshot.Symbol == sym {
				own = append(own, tk)
			}
		}
		tcfg := lighttrader.DefaultTradingConfig(int32(i + 1))
		tcfg.MinConfidence = 0.2
		if err := mp.Add(sym, int32(i+1), lighttrader.NewSizedCNN("serve", 8, 0),
			lighttrader.CalibrateNormalizer(own), tcfg); err != nil {
			return nil, err
		}
	}
	return mp, nil
}

func pickModel(name string) (*lighttrader.Model, error) {
	switch strings.ToLower(name) {
	case "cnn", "vanillacnn":
		return lighttrader.NewVanillaCNN(), nil
	case "translob":
		return lighttrader.NewTransLOB(), nil
	case "deeplob":
		return lighttrader.NewDeepLOB(), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want cnn, translob, deeplob)", name)
	}
}

// loadTrace reads the recorded trace at path, or renders the named scenario
// when path is empty.
func loadTrace(path, scenarioName string, seed int64) ([]lighttrader.Tick, error) {
	if path == "" {
		src, err := lighttrader.ScenarioByName(scenarioName, seed)
		if err != nil {
			return nil, err
		}
		return src.Ticks(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, trace, err := lighttrader.ReadTrace(f)
	return trace, err
}

func traceSpanSecs(trace []lighttrader.Tick) float64 {
	if len(trace) < 2 {
		return 0
	}
	return float64(trace[len(trace)-1].TimeNanos-trace[0].TimeNanos) / 1e9
}

func dur(ns int64) string { return time.Duration(ns).Round(100 * time.Nanosecond).String() }
