// Quickstart: one tick through the whole AI-enabled HFT pipeline, via the
// serving facade.
//
// It takes a short burst of market data from the opening scenario,
// calibrates the offload
// engine's Z-score normaliser, subscribes one instrument on a
// MultiPipeline, and feeds encoded market-data packets through an inline
// (serial, synchronous) serving runtime — SBE parse → local book →
// feature map → real DNN forward pass → risk-checked order generation —
// printing what the system decided on the final ticks.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lighttrader"
)

func main() {
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
	// concurrent runtime — see examples/serving.
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
		fmt.Printf("decision: %-10s conf %.2f acted=%v %s\n",
			d.Direction, d.Confidence, d.Acted, d.Suppressed)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
