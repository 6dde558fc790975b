//go:build !race

// The race detector slows ExampleNewTrainer's SGD epoch more than tenfold,
// so it runs in the plain build only.

package lighttrader_test

import (
	"fmt"
	"log"

	"lighttrader"
)

// The offline stage of paper Fig. 3: label a tick trace from the
// trading-day scenario by the direction of the mean mid over the next 20
// ticks (the DeepLOB smoothed-labelling scheme), train a small CNN by SGD
// for one epoch, score it on held-out windows, then deploy the trained and
// an untrained model in a packet-level back-test of a fresh day.
func ExampleNewTrainer() {
	const (
		horizon   = 20   // prediction horizon in ticks
		threshold = 2e-6 // relative mid move for a directional label (≈1 tick)
	)
	day := func(seed int64) []lighttrader.Tick {
		src, err := lighttrader.ScenarioByName("trading-day", seed)
		if err != nil {
			log.Fatal(err)
		}
		return src.Ticks()[:1000]
	}
	trace := day(1)
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
	loss, err := trainer.Epoch(xs[:split], ys[:split])
	if err != nil {
		log.Fatal(err)
	}
	acc, _ := lighttrader.Accuracy(model, xs[split:], ys[split:])
	fmt.Printf("one epoch: train loss %.4f, held-out accuracy %.1f%%\n", loss, 100*acc)

	// Deploy both models on an out-of-sample day.
	testTrace := day(99)
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
		fmt.Printf("%-14s %d inferences, %d orders, final position %+d, PnL %+.0f tick·lots\n",
			m.Name()+":", rep.Inferences, rep.Orders, rep.FinalPosition, rep.PnLTicks)
	}
	// Synthetic order flow carries little exploitable signal, and the
	// trained model learns exactly that: it stops trading noise, while the
	// untrained model churns and bleeds. The deliverable is the working
	// train → deploy → back-test loop of Fig. 3, not alpha.

	// Output:
	// dataset: 881 examples (704 train / 177 test), horizon 20 ticks
	// one epoch: train loss 0.5271, held-out accuracy 69.5%
	// trained-cnn:   901 inferences, 40 orders, final position +10, PnL -153 tick·lots
	// untrained-cnn: 901 inferences, 291 orders, final position -9, PnL -726 tick·lots
}
