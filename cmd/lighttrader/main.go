// Command lighttrader runs a back-test of the LightTrader system (or a
// baseline) against a market scenario or a recorded tick trace and prints the
// response-rate / latency metrics. With -serve it instead drives the
// concurrent multi-symbol serving runtime (online Algorithm-1 batching
// across worker lanes) over a shared feed and reports the modelled
// throughput scaling.
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
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lighttrader"
	"lighttrader/internal/prof"
)

func main() {
	model := flag.String("model", "deeplob", "DNN model: cnn, translob, deeplob")
	system := flag.String("system", "lighttrader", "system under test: lighttrader, gpu, fpga")
	accels := flag.Int("accels", 4, "number of AI accelerators (worker lanes in -serve mode)")
	power := flag.String("power", "sufficient", "power condition: sufficient, limited")
	ws := flag.Bool("ws", false, "enable workload scheduling (Algorithm 1 batching)")
	ds := flag.Bool("ds", false, "enable DVFS scheduling (Algorithm 2)")
	scheduler := flag.String("scheduler", "", "scheduling strategy: "+strings.Join(lighttrader.SchedulerNames(), ", ")+" (default ppw; implies -ws)")
	ticks := flag.Int("ticks", 40000, "total packets in -serve and -signal-listen mode")
	seed := flag.Int64("seed", 1, "scenario seed")
	tracePath := flag.String("trace", "", "replay a recorded trace file instead of the scenario")
	scenarioName := flag.String("scenario", "trading-day", "market scenario to replay: "+strings.Join(lighttrader.ScenarioNames(), ", "))
	tavail := flag.Duration("tavail", 20*time.Millisecond, "available time per query (t_avail)")
	serveMode := flag.Bool("serve", false, "drive the concurrent serving runtime instead of a back-test")
	symbols := flag.Int("symbols", 8, "subscribed instruments (-serve mode)")
	signalListen := flag.String("signal-listen", "", "serve the live trade-signal stream on this TCP address (paced scenario feed; Ctrl-C to stop)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	pc := lighttrader.Sufficient
	if strings.EqualFold(*power, "limited") {
		pc = lighttrader.Limited
	}

	var schedOpt []lighttrader.Option
	if *scheduler != "" {
		factory, err := lighttrader.SchedulerByName(*scheduler)
		if err != nil {
			fatal(err)
		}
		schedOpt = append(schedOpt, lighttrader.WithScheduler(factory))
	}

	if *signalListen != "" {
		runSignalListen(*signalListen, *symbols, *accels, *ticks, *seed)
		return
	}

	if *serveMode {
		runServe(*symbols, *accels, *ticks, *seed, pc, *ds, schedOpt)
		return
	}

	m, err := pickModel(*model)
	if err != nil {
		fatal(err)
	}
	trace, err := loadTrace(*tracePath, *scenarioName, *seed)
	if err != nil {
		fatal(err)
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
		sys, err = lighttrader.New(m, opts...)
		if err != nil {
			fatal(err)
		}
	case "gpu":
		sys = lighttrader.NewGPUBaseline(m)
	case "fpga":
		sys = lighttrader.NewFPGABaseline(m)
	default:
		fatal(fmt.Errorf("unknown system %q", *system))
	}

	start := time.Now()
	metrics := lighttrader.Backtest(trace, *tavail, sys)
	elapsed := time.Since(start)

	fmt.Printf("system          %s\n", sys.Name())
	fmt.Printf("trace           %d ticks over %.1f s (t_avail %v)\n",
		metrics.Total, traceSpanSecs(trace), *tavail)
	fmt.Printf("response rate   %.2f%%   (responded %d, deferred %d, late %d)\n",
		100*metrics.ResponseRate, metrics.Responded, metrics.Dropped, metrics.Late)
	fmt.Printf("miss rate       %.2f%%\n", 100*metrics.MissRate)
	fmt.Printf("tick-to-trade   mean %s  p50 %s  p99 %s  max %s\n",
		dur(metrics.MeanLatencyNanos), dur(metrics.P50LatencyNanos),
		dur(metrics.P99LatencyNanos), dur(metrics.MaxLatencyNanos))
	fmt.Printf("mean batch      %.2f\n", metrics.MeanBatch)
	if metrics.EnergyJoules > 0 {
		fmt.Printf("energy          %.1f J (avg %.1f W)\n", metrics.EnergyJoules, metrics.AvgPowerWatts)
	}
	fmt.Printf("simulated in    %v\n", elapsed.Round(time.Millisecond))
}

// runServe replays one shared multi-instrument feed through the serving
// runtime twice — one lane, then the requested lane count — and compares
// the modelled makespan (Σ issued batch latency per lane, max over lanes).
// Queues are pre-filled before the lanes start so the Algorithm-1 batch
// decisions, and therefore the modelled times, are deterministic.
func runServe(symbols, lanes, total int, seed int64, pc lighttrader.PowerCondition, ds bool, schedOpt []lighttrader.Option) {
	if symbols < 1 || lanes < 1 {
		fatal(fmt.Errorf("-serve needs -symbols >= 1 and -accels >= 1"))
	}
	feed := symbolFeed(symbols, total, seed)
	// Fresh pipelines per run: NewSizedCNN self-seeds from its shape, so
	// every run starts from identical weights and identical empty books.
	build := func() *lighttrader.MultiPipeline { return symbolPipelines(symbols, feed) }

	run := func(n int) (lighttrader.ServeStats, int64, time.Duration, int) {
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
		srv, err := lighttrader.NewServer(build(), opts...)
		if err != nil {
			fatal(err)
		}
		for _, tk := range feed {
			if err := srv.Submit(tk.TimeNanos, tk.Packet); err != nil {
				fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		start := time.Now()
		go func() { defer close(done); _ = srv.Run(ctx) }()
		srv.Drain()
		wall := time.Since(start)
		cancel()
		<-done
		var makespan int64
		for _, busy := range srv.ModelledBusyNanos() {
			if busy > makespan {
				makespan = busy
			}
		}
		return srv.Stats(), makespan, wall, log.Total()
	}

	sched := "WS"
	if ds {
		sched += "+DS"
	}
	fmt.Printf("serving: %d symbols, %d packets, sized CNN (8 ch), %s, %s power\n\n",
		symbols, len(feed), sched, pcName(pc))
	fmt.Printf("%5s %15s %6s %8s %11s %7s %18s %10s\n",
		"lanes", "served", "drops", "batches", "mean batch", "orders", "modelled makespan", "wall")
	var base int64
	for _, n := range laneSweep(lanes) {
		st, makespan, wall, orders := run(n)
		fmt.Printf("%5d %8d/%-6d %6d %8d %11.2f %7d %18v %10v\n",
			n, st.Served, st.Submitted, st.Dropped(), st.Batches, st.MeanBatch,
			orders, time.Duration(makespan).Round(time.Microsecond),
			wall.Round(time.Millisecond))
		if n == 1 {
			base = makespan
		} else if base > 0 && makespan > 0 {
			fmt.Printf("      modelled speedup at %d lanes: %.2fx\n",
				n, float64(base)/float64(makespan))
		}
	}
	fmt.Println("\nModelled makespan is the accelerator-time model (wall clock depends on")
	fmt.Println("host cores); single-lane output is byte-identical to the serial path.")
}

// runSignalListen is the live signal-distribution mode: the serving
// runtime replays a paced multi-instrument scenario feed with the signal
// gateway attached, while the gateway serves the conflated trade-signal
// stream to TCP subscribers on addr (see examples/signals for a client).
// After the replay the gateway keeps serving — late joiners warm-start on
// each symbol's latest value — until interrupted.
func runSignalListen(addr string, symbols, lanes, total int, seed int64) {
	if symbols < 1 || lanes < 1 {
		fatal(fmt.Errorf("-signal-listen needs -symbols >= 1 and -accels >= 1"))
	}
	feed := symbolFeed(symbols, total, seed)
	mp := symbolPipelines(symbols, feed)

	gw, err := lighttrader.NewSignalGateway(lighttrader.SignalGatewayConfig{})
	if err != nil {
		fatal(err)
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
		fatal(err)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan struct{})
	runDone := make(chan struct{})
	go func() { defer close(serveDone); _ = gw.Serve(ctx, ln) }()
	go func() { defer close(runDone); _ = srv.Run(ctx) }()

	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)

	fmt.Printf("signal gateway listening on %s (%d symbols, %d lanes, %d shards)\n",
		ln.Addr(), symbols, lanes, gw.Shards())
	fmt.Printf("replaying %d packets paced at ~5k/s; Ctrl-C to stop\n", len(feed))

	pace := time.NewTicker(200 * time.Microsecond)
	defer pace.Stop()
replay:
	for _, tk := range feed {
		select {
		case <-interrupted:
			break replay
		case <-pace.C:
		}
		if err := srv.Submit(tk.TimeNanos, tk.Packet); err != nil {
			fatal(err)
		}
	}
	srv.Drain()
	gw.Drain()

	st := srv.Stats()
	gs := gw.Stats()
	fmt.Printf("\nreplay done: served %d/%d, orders %d\n", st.Served, st.Submitted, log.Total())
	fmt.Printf("signals: published %d, delivered %d, conflation drops %d\n",
		gs.Published, gs.Delivered, gs.ConflationDrops)
	fmt.Printf("conns: open %d, total %d, dropped %d; subscribers %d\n",
		gs.ConnsOpen, gs.ConnsTotal, gs.ConnsDropped, gs.Subscribers)
	fmt.Println("gateway still serving (late joiners warm-start); Ctrl-C to exit")
	<-interrupted

	cancel()
	gw.Close()
	<-serveDone
	<-runDone
}

// symbolFeed is the -serve/-signal-listen feed: the quiet scenario's drift
// listed on symbols instruments SIM1…SIMn (security ids 1…n), one stream
// cut to total packets — at least 300 per instrument on average, enough to
// fill the model window and still measure.
func symbolFeed(symbols, total int, seed int64) []lighttrader.Tick {
	total = max(total, 300*symbols)
	src, err := lighttrader.ScenarioByName("quiet", seed)
	if err != nil {
		fatal(err)
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
		fatal(err)
	}
	feed := src.Ticks()
	return feed[:min(total, len(feed))]
}

// symbolPipelines subscribes SIM1…SIMn, each calibrated on its own ticks
// of the feed.
func symbolPipelines(symbols int, feed []lighttrader.Tick) *lighttrader.MultiPipeline {
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
			fatal(err)
		}
	}
	return mp
}

func laneSweep(lanes int) []int {
	if lanes == 1 {
		return []int{1}
	}
	return []int{1, lanes}
}

func pcName(pc lighttrader.PowerCondition) string {
	if pc == lighttrader.Limited {
		return "limited"
	}
	return "sufficient"
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lighttrader:", err)
	os.Exit(1)
}
