// Scheduler: Algorithms 1 and 2 at work (paper Fig. 13 in miniature).
//
// Runs one bursty E-mini-like stream against LightTrader with 8 accelerators under
// the limited power condition in all four scheduler configurations —
// baseline, workload scheduling (WS), DVFS scheduling (DS), and both — and
// shows the miss rate, the batch sizes the PPW metric picked, and the
// energy the DVFS policy saved.
//
//	go run ./examples/scheduler
package main

import (
	"fmt"
	"log"
	"time"

	"lighttrader"
)

func main() {
	const accels = 8

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
	fmt.Println("\nWS batches bursts through spare grid capacity; DS spends the idle")
	fmt.Println("accelerators' power budget on the busy ones. Together they cover both")
	fmt.Println("the small-N (throughput) and large-N (power) regimes of paper Fig. 13.")
}
