// Train: the offline stage of paper Fig. 3 — train a price-movement
// predictor on historical ticks, then deploy it in the tick-to-trade
// pipeline and compare PnL against an untrained model.
//
// It takes a tick trace from the trading-day scenario, labels each step by the direction of the mean
// mid over the next 20 ticks (the DeepLOB smoothed-labelling scheme),
// trains a small CNN by SGD, evaluates held-out accuracy, and runs both
// the trained and an untrained model through a packet-level back-test.
//
//	go run ./examples/train
package main

import (
	"fmt"
	"log"

	"lighttrader"
)

const (
	horizon   = 20   // prediction horizon in ticks
	threshold = 2e-6 // relative mid move for a directional label (≈1 tick)
	epochs    = 3
)

func main() {
	day := func(seed int64, n int) []lighttrader.Tick {
		src, err := lighttrader.ScenarioByName("trading-day", seed)
		if err != nil {
			log.Fatal(err)
		}
		return src.Ticks()[:n]
	}
	trace := day(1, 2200)
	norm := lighttrader.CalibrateNormalizer(trace)

	xs, ys := lighttrader.BuildDataset(trace, norm, horizon, threshold)
	split := len(xs) * 4 / 5
	fmt.Printf("dataset: %d examples (%d train / %d test), horizon %d ticks\n",
		len(xs), split, len(xs)-split, horizon)

	model := lighttrader.NewSizedCNN("trained-cnn", 8, 0)
	trainer, err := lighttrader.NewTrainer(model, 0.005)
	if err != nil {
		log.Fatal(err)
	}
	for e := 1; e <= epochs; e++ {
		loss, err := trainer.Epoch(xs[:split], ys[:split])
		if err != nil {
			log.Fatal(err)
		}
		acc, _ := lighttrader.Accuracy(model, xs[split:], ys[split:])
		fmt.Printf("epoch %d: train loss %.4f, held-out accuracy %.1f%%\n", e, loss, 100*acc)
	}

	// Deploy both models on a fresh out-of-sample trace.
	testTrace := day(99, 3000)
	for _, m := range []*lighttrader.Model{model, lighttrader.NewSizedCNN("untrained-cnn", 8, 0)} {
		tcfg := lighttrader.DefaultTradingConfig(1) // the scenario's one book, ESU6
		tcfg.MinConfidence = 0.34
		p, err := lighttrader.NewPipeline("ESU6", 1, m, norm, tcfg)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := lighttrader.FunctionalBacktest(testTrace, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%-14s %d inferences, %d orders, final position %+d, PnL %+.0f tick·lots\n",
			m.Name()+":", rep.Inferences, rep.Orders, rep.FinalPosition, rep.PnLTicks)
	}
	fmt.Println("\n(Synthetic order flow carries little exploitable signal, and the")
	fmt.Println("trained model learns exactly that: it stops trading noise, while the")
	fmt.Println("untrained model churns and bleeds. The deliverable is the working")
	fmt.Println("train → deploy → back-test loop of Fig. 3, not alpha.)")
}
