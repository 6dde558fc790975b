// Backtest: the paper's evaluation loop in ~40 lines.
//
// Replays a bursty E-mini-like scenario against LightTrader with 1…8
// accelerators and against the GPU- and FPGA-based baselines, printing the
// response-rate comparison of paper Figs. 11(b) and 12.
//
//	go run ./examples/backtest
package main

import (
	"fmt"
	"log"
	"time"

	"lighttrader"
)

func main() {
	const tAvail = 20 * time.Millisecond

	// The quiet scenario's book at E-mini front-month intensity: ≈ 2 000
	// ticks/s with heavy clustering (branching ratio 0.8), for 10 s.
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
	trace := src.Ticks()
	model := lighttrader.NewDeepLOB()
	fmt.Printf("backtest: DeepLOB over %d ticks of %s, t_avail %v\n\n", len(trace), src.Name(), tAvail)

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
}
