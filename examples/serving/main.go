// Serving: the concurrent multi-symbol runtime end to end.
//
// Subscribes several instruments on one MultiPipeline, shards them across
// worker lanes (one logical lane per modelled accelerator), and replays one
// multi-instrument scenario feed through the runtime with online Algorithm-1
// admission — each lane batches its backlog by the PPW rule before running
// the real DNN forward passes. The same feed is then replayed through the
// inline (serial) configuration to show the runtime's defining property:
// per-symbol order streams and books are identical at every lane count.
//
//	go run ./examples/serving
//	go run ./examples/serving -symbols 8 -lanes 4 -events 400
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"lighttrader"
)

func main() {
	symbols := flag.Int("symbols", 4, "subscribed instruments")
	lanes := flag.Int("lanes", 2, "worker lanes (modelled accelerators)")
	events := flag.Int("events", 300, "market-data events per instrument (on average)")
	flag.Parse()

	// The quiet scenario's drift listed on SIM1…SIMn: one stream whose
	// events land on a random instrument each, cut to symbols × events.
	src, err := lighttrader.ScenarioByName("quiet", 1)
	if err != nil {
		log.Fatal(err)
	}
	sc := src.Script()
	ins := sc.Instruments[0]
	sc.Instruments = sc.Instruments[:0]
	for i := 0; i < *symbols; i++ {
		ins.SecurityID, ins.Symbol = int32(i+1), fmt.Sprintf("SIM%d", i+1)
		sc.Instruments = append(sc.Instruments, ins)
	}
	total := *symbols * *events
	sc.Phases[0].DurationSecs = float64(total) / 300 // the drift runs at ≈ 420 events/s
	if src, err = lighttrader.NewScenario("serving", sc, 1); err != nil {
		log.Fatal(err)
	}
	feed := src.Ticks()
	feed = feed[:min(total, len(feed))]

	// Fresh pipelines per run: identically-sized CNNs self-seed to
	// identical weights, so runs are comparable.
	build := func() *lighttrader.MultiPipeline {
		mp := lighttrader.NewMultiPipeline()
		for _, in := range sc.Instruments {
			var own []lighttrader.Tick
			for _, tk := range feed {
				if tk.Snapshot.Symbol == in.Symbol {
					own = append(own, tk)
				}
			}
			tcfg := lighttrader.DefaultTradingConfig(in.SecurityID)
			tcfg.MinConfidence = 0.2
			if err := mp.Add(in.Symbol, in.SecurityID,
				lighttrader.NewSizedCNN("serving", 8, 0),
				lighttrader.CalibrateNormalizer(own), tcfg); err != nil {
				log.Fatal(err)
			}
		}
		return mp
	}

	run := func(opts ...lighttrader.Option) (*lighttrader.Server, *lighttrader.OrderLog) {
		orders := lighttrader.NewOrderLog()
		srv, err := lighttrader.NewServer(build(),
			append(opts, lighttrader.WithOrderSink(orders.Sink()))...)
		if err != nil {
			log.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Run(ctx) }()
		for _, tick := range feed {
			if err := srv.Submit(tick.TimeNanos, tick.Packet); err != nil {
				log.Fatal(err)
			}
		}
		srv.Drain() // block until every lane queue is empty
		cancel()
		<-done
		return srv, orders
	}

	fmt.Printf("serving: %d symbols x %d events = %d packets\n\n",
		*symbols, *events, len(feed))

	start := time.Now()
	fleet, fleetOrders := run(
		lighttrader.WithAccelerators(*lanes),
		lighttrader.WithBackpressure(), // lossless: block Submit when a lane fills
		lighttrader.WithWorkloadScheduling(),
		lighttrader.WithDeadline(time.Hour))
	fleetWall := time.Since(start)

	start = time.Now()
	inline, inlineOrders := run(lighttrader.WithInline())
	inlineWall := time.Since(start)

	st := fleet.Stats()
	fmt.Printf("%d-lane runtime: served %d/%d, %d batches (mean %.2f), %d orders, %v\n",
		fleet.Lanes(), st.Served, st.Submitted, st.Batches, st.MeanBatch,
		st.Orders, fleetWall.Round(time.Millisecond))
	fmt.Printf("inline (serial): served %d/%d, %d orders, %v\n",
		inline.Stats().Served, inline.Stats().Submitted,
		inline.Stats().Orders, inlineWall.Round(time.Millisecond))

	// The parity check: same orders, same books, at any lane count.
	for i := range sc.Instruments {
		id := int32(i + 1)
		a, b := inlineOrders.Orders(id), fleetOrders.Orders(id)
		if len(a) != len(b) {
			log.Fatalf("SIM%d: serial produced %d orders, %d-lane %d",
				i+1, len(a), fleet.Lanes(), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				log.Fatalf("SIM%d order %d diverged", i+1, j)
			}
		}
		sa, _ := inline.Snapshot(id, 0)
		sb, _ := fleet.Snapshot(id, 0)
		if sa.Bids != sb.Bids || sa.Asks != sb.Asks {
			log.Fatalf("SIM%d books diverged at quiesce", i+1)
		}
		fmt.Printf("SIM%d: %3d orders, %4d inferences — identical serial vs %d-lane\n",
			i+1, len(a), fleet.Inferences(id), fleet.Lanes())
	}
}
