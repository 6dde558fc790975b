package lighttrader_test

import (
	"fmt"
	"log"
	"time"

	"lighttrader"
)

// cmeTrace is the quiet scenario's book at E-mini front-month intensity:
// ≈ 2 000 ticks/s with heavy clustering (branching ratio 0.8), for 10 s.
func cmeTrace() []lighttrader.Tick {
	src, err := lighttrader.ScenarioByName("quiet", 1)
	if err != nil {
		log.Fatal(err)
	}
	sc := src.Script()
	sc.Phases[0].DurationSecs = 10
	h := &sc.Phases[0].Arrivals.Hawkes[0]
	h.Mu, h.Alpha, h.Beta = 400, 16000, 20000
	if src, err = lighttrader.NewScenario("cme", sc, 1); err != nil {
		log.Fatal(err)
	}
	return src.Ticks()
}

// One tick through the whole AI-enabled HFT pipeline, via the serving
// facade. A short burst of the opening scenario calibrates the offload
// engine's Z-score normaliser; one instrument is subscribed on a
// MultiPipeline and its encoded market-data packets run through an inline
// (serial, synchronous) serving runtime — SBE parse → local book → feature
// map → real DNN forward pass → risk-checked order generation.
func ExampleNewServer() {
	src, err := lighttrader.ScenarioByName("opening", 1)
	if err != nil {
		log.Fatal(err)
	}
	ins := src.Script().Instruments[0]

	// 150 ticks: 100 to fill the model's input window, 50 live ones.
	trace := src.Ticks()[:150]
	norm := lighttrader.CalibrateNormalizer(trace[:100])

	tcfg := lighttrader.DefaultTradingConfig(ins.SecurityID)
	tcfg.MinConfidence = 0.34 // act on any directional lean

	mp := lighttrader.NewMultiPipeline()
	if err := mp.Add(ins.Symbol, ins.SecurityID,
		lighttrader.NewVanillaCNN(), norm, tcfg); err != nil {
		log.Fatal(err)
	}

	// WithInline selects the degenerate serial configuration: Submit runs
	// the pipeline on this goroutine and orders reach the sink before it
	// returns. Drop WithInline (and add WithAccelerators) for the
	// concurrent runtime, as `lighttrader -serve` does.
	orders := lighttrader.NewOrderLog()
	srv, err := lighttrader.NewServer(mp,
		lighttrader.WithInline(),
		lighttrader.WithOrderSink(orders.Sink()))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("quickstart: %s, %d ticks\n\n", ins.Symbol, len(trace))
	seen := 0
	for i, tick := range trace {
		if err := srv.Submit(tick.TimeNanos, tick.Packet); err != nil {
			log.Fatalf("tick %d: %v", i, err)
		}
		for _, req := range orders.Orders(ins.SecurityID)[seen:] {
			seen++
			side := "BUY "
			if req.Side == 1 {
				side = "SELL"
			}
			fmt.Printf("tick %3d  %s %d @ %d (clOrdID %d)\n",
				i, side, req.Qty, req.Price, req.ClOrdID)
		}
	}

	snap, _ := srv.Snapshot(ins.SecurityID, 0)
	fmt.Printf("\nprocessed %d ticks, ran %d inferences, generated %d orders\n",
		len(trace), srv.Inferences(ins.SecurityID), orders.Total())
	fmt.Printf("final book: best bid %d x %d | best ask %d x %d\n",
		snap.Bids[0].Price, snap.Bids[0].Qty, snap.Asks[0].Price, snap.Asks[0].Qty)
	decisions := mp.Pipelines()[0].Trader().Decisions()
	for _, d := range decisions[:min(5, len(decisions))] {
		fmt.Printf("decision: %s conf %.2f acted=%v reason=%q\n",
			d.Direction, d.Confidence, d.Acted, d.Suppressed)
	}
	// Output:
	// quickstart: ESU6, 150 ticks
	//
	// tick  99  SELL 1 @ 449999 (clOrdID 1000001)
	// tick 100  SELL 1 @ 449999 (clOrdID 1000002)
	// tick 101  SELL 1 @ 449999 (clOrdID 1000003)
	// tick 102  SELL 1 @ 449999 (clOrdID 1000004)
	// tick 103  SELL 1 @ 449999 (clOrdID 1000005)
	// tick 104  SELL 1 @ 449998 (clOrdID 1000006)
	// tick 105  SELL 1 @ 449998 (clOrdID 1000007)
	// tick 106  SELL 1 @ 449998 (clOrdID 1000008)
	// tick 131  SELL 1 @ 449999 (clOrdID 1000009)
	// tick 135  SELL 1 @ 449999 (clOrdID 1000010)
	//
	// processed 150 ticks, ran 51 inferences, generated 10 orders
	// final book: best bid 449998 x 19 | best ask 450002 x 11
	// decision: down conf 1.00 acted=true reason=""
	// decision: down conf 1.00 acted=true reason=""
	// decision: down conf 1.00 acted=true reason=""
	// decision: down conf 1.00 acted=true reason=""
	// decision: down conf 1.00 acted=true reason=""
}

// The paper's evaluation loop: a bursty E-mini-like scenario replayed
// against LightTrader with 1…8 accelerators and against the GPU- and
// FPGA-based baselines — the response-rate comparison of paper Figs. 11(b)
// and 12.
func ExampleBacktest() {
	const tAvail = 20 * time.Millisecond
	trace := cmeTrace()
	model := lighttrader.NewDeepLOB()
	fmt.Printf("backtest: DeepLOB over %d ticks, t_avail %v\n\n", len(trace), tAvail)

	fmt.Println("LightTrader (workload + DVFS scheduling, sufficient power):")
	for _, n := range []int{1, 2, 4, 8} {
		sys, err := lighttrader.New(model,
			lighttrader.WithAccelerators(n),
			lighttrader.WithWorkloadScheduling(),
			lighttrader.WithDVFSScheduling())
		if err != nil {
			log.Fatal(err)
		}
		m := lighttrader.Backtest(trace, tAvail, sys)
		fmt.Printf("  N=%2d accelerators: response %.2f%%  mean tick-to-trade %v  avg power %.1f W\n",
			n, 100*m.ResponseRate, time.Duration(m.MeanLatencyNanos).Round(time.Microsecond),
			m.AvgPowerWatts)
	}

	fmt.Println("\nBaselines:")
	for _, sys := range []lighttrader.System{
		lighttrader.NewGPUBaseline(model),
		lighttrader.NewFPGABaseline(model),
	} {
		m := lighttrader.Backtest(trace, tAvail, sys)
		fmt.Printf("  %-24s response %.2f%%  mean tick-to-trade %v\n",
			sys.Name(), 100*m.ResponseRate, time.Duration(m.MeanLatencyNanos).Round(time.Microsecond))
	}
	// Output:
	// backtest: DeepLOB over 17255 ticks, t_avail 20ms
	//
	// LightTrader (workload + DVFS scheduling, sufficient power):
	//   N= 1 accelerators: response 98.71%  mean tick-to-trade 1.531ms  avg power 1.7 W
	//   N= 2 accelerators: response 99.52%  mean tick-to-trade 950µs  avg power 2.5 W
	//   N= 4 accelerators: response 99.98%  mean tick-to-trade 659µs  avg power 4.1 W
	//   N= 8 accelerators: response 100.00%  mean tick-to-trade 470µs  avg power 7.1 W
	//
	// Baselines:
	//   GPU-based[DeepLOB]       response 18.52%  mean tick-to-trade 16.474ms
	//   FPGA-based[DeepLOB]      response 23.25%  mean tick-to-trade 16.116ms
}

// Algorithms 1 and 2 at work (paper Fig. 13 in miniature): one bursty
// E-mini-like stream against LightTrader with 8 accelerators under the
// limited power condition, in all four scheduler configurations — baseline,
// workload scheduling (WS), DVFS scheduling (DS) and both — with the miss
// rate, the batch sizes the PPW metric picked, and the energy the DVFS
// policy saved.
func ExampleWithDVFSScheduling() {
	const accels = 8
	trace := cmeTrace()
	model := lighttrader.NewTransLOB()

	configs := []struct {
		name string
		opts []lighttrader.Option
	}{
		{"baseline (no scheduling)", nil},
		{"WS  (Algorithm 1 batching)", []lighttrader.Option{lighttrader.WithWorkloadScheduling()}},
		{"DS  (Algorithm 2 power)", []lighttrader.Option{lighttrader.WithDVFSScheduling()}},
		{"WS+DS", []lighttrader.Option{
			lighttrader.WithWorkloadScheduling(), lighttrader.WithDVFSScheduling()}},
	}

	fmt.Printf("scheduler study: TransLOB, N=%d, limited power (%g W for accelerators)\n\n",
		accels, lighttrader.Limited.AccelBudgetWatts)
	fmt.Printf("%-28s %9s %10s %11s %10s\n", "configuration", "miss", "mean batch", "p99 t2t", "energy")
	for _, c := range configs {
		sys, err := lighttrader.New(model, append([]lighttrader.Option{
			lighttrader.WithAccelerators(accels),
			lighttrader.WithPowerBudget(lighttrader.Limited),
		}, c.opts...)...)
		if err != nil {
			log.Fatal(err)
		}
		m := lighttrader.Backtest(trace, 20*time.Millisecond, sys)
		fmt.Printf("%-28s %8.2f%% %10.2f %11v %9.1fJ\n",
			c.name, 100*m.MissRate, m.MeanBatch,
			time.Duration(m.P99LatencyNanos).Round(time.Microsecond), m.EnergyJoules)
	}
	// WS batches bursts through spare grid capacity; DS spends the idle
	// accelerators' power budget on the busy ones. Together they cover both
	// the small-N (throughput) and large-N (power) regimes of paper Fig. 13.

	// Output:
	// scheduler study: TransLOB, N=8, limited power (20 W for accelerators)
	//
	// configuration                     miss mean batch     p99 t2t     energy
	// baseline (no scheduling)         0.52%       1.00     2.032ms     131.0J
	// WS  (Algorithm 1 batching)       0.00%       2.70     1.522ms     130.8J
	// DS  (Algorithm 2 power)          0.45%       1.00     1.886ms      63.3J
	// WS+DS                            0.00%       2.52     1.325ms      62.0J
}
