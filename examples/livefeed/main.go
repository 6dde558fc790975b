// Livefeed: the full tick-to-trade loop over real sockets, with optional
// network chaos.
//
// It boots the wire-level exchange simulator in-process (redundant A/B UDP
// market data out, TCP iLink-style order entry in) and runs the resilient
// live client from internal/trader against it: arbitrated dual-feed
// consumption, SBE parse → book → feature map → DNN inference → risk
// checks, and a FIXP-style order-entry session with heartbeats, keep-alive
// monitoring, reconnect with capped backoff, and cancel-on-disconnect.
//
//	go run ./examples/livefeed
//
// Fault injection (deterministic, seeded) exercises the degraded paths:
//
//	go run ./examples/livefeed -drop 0.3 -dup 0.1 -reorder 0.1
//	go run ./examples/livefeed -reset 4096
//
// With -drop et al. the A/B arbiter papers over per-feed loss and the
// periodic snapshots heal any residual gaps; with -reset the order-entry
// connection is torn down every N bytes and the client must keep
// re-establishing while flattening its resting orders.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"lighttrader"
	"lighttrader/internal/exchange"
	"lighttrader/internal/faultnet"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/serve"
	"lighttrader/internal/trader"
	"lighttrader/internal/venue"
)

const (
	securityID = 1
	symbol     = "ESU6"
)

func main() {
	var (
		runFor  = flag.Duration("dur", 3*time.Second, "how long to trade")
		drop    = flag.Float64("drop", 0, "per-feed datagram drop probability")
		dup     = flag.Float64("dup", 0, "per-feed duplicate probability")
		reorder = flag.Float64("reorder", 0, "per-feed reorder probability")
		corrupt = flag.Float64("corrupt", 0, "per-feed corruption probability")
		reset   = flag.Int64("reset", 0, "order-entry reset budget in bytes (0 = never)")
		seed    = flag.Int64("seed", 1, "fault sequence seed")
	)
	flag.Parse()

	// Two feed subscription sockets first, so the exchange knows where to
	// publish its redundant A and B streams.
	feedA, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer feedA.Close()
	feedB, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer feedB.Close()

	srv, err := venue.NewServer(venue.ServerConfig{
		OrderAddr:        "127.0.0.1:0",
		FeedAddr:         feedA.LocalAddr().String(),
		FeedAddrB:        feedB.LocalAddr().String(),
		SecurityID:       securityID,
		Symbol:           symbol,
		MidPrice:         450000,
		Depth:            100,
		NoiseInterval:    500 * time.Microsecond,
		NoiseSeed:        7,
		SnapshotInterval: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *runFor)
	defer cancel()
	go func() { _ = srv.Run(ctx) }()

	// Seeded faults on both feeds (distinct sequences) and, when asked, a
	// byte-budget reset on every order-entry dial.
	pf := faultnet.PacketFaults{Drop: *drop, Duplicate: *dup, Reorder: *reorder, Corrupt: *corrupt}
	pfA, pfB := pf, pf
	pfA.Seed = *seed
	pfB.Seed = *seed + 1
	faultA := faultnet.WrapPacketConn(feedA, pfA)
	faultB := faultnet.WrapPacketConn(feedB, pfB)

	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", srv.OrderAddr().String())
		if err != nil {
			return nil, err
		}
		if *reset > 0 {
			conn = faultnet.WrapConn(conn, faultnet.ConnFaults{Seed: *seed, ResetAfter: *reset})
		}
		return conn, nil
	}

	// Calibrate the normaliser offline, as the paper does with historical
	// data, then build the pipeline and wrap it in the resilient trader.
	calib := lighttrader.GenerateTrace(lighttrader.DefaultTraceConfig(), 500)
	tcfg := lighttrader.DefaultTradingConfig(securityID)
	tcfg.MinConfidence = 0.34
	pipeline, err := lighttrader.NewPipeline(symbol, securityID,
		lighttrader.NewVanillaCNN(), lighttrader.CalibrateNormalizer(calib), tcfg)
	if err != nil {
		log.Fatal(err)
	}

	// One subscription, Lanes: 0 — the whole loop runs inline on the feed
	// goroutine, the degenerate lane count of the multi-symbol runtime.
	mp := lighttrader.NewMultiPipeline()
	if err := mp.Attach(pipeline); err != nil {
		log.Fatal(err)
	}
	tr, err := trader.NewMulti(trader.Config{
		Dial:               dial,
		UUID:               0xF00D,
		KeepAliveMillis:    250,
		BackoffMin:         25 * time.Millisecond,
		BackoffSeed:        *seed,
		CancelOnDisconnect: true,
		OnAck: func(ack orderentry.ExecAck) {
			if ack.Exec == exchange.ExecFilled || ack.Exec == exchange.ExecPartialFill {
				fmt.Printf("  fill: clOrdID %d %d @ %d\n", ack.ClOrdID, ack.Qty, ack.Price)
			}
		},
		Logf: log.Printf,
	}, mp, 8, serve.Config{})
	if err != nil {
		log.Fatal(err)
	}

	go func() { _ = tr.Run(ctx) }() // starts the lanes; none at Lanes: 0
	go func() { _ = tr.Client().Run(ctx) }()
	go func() { _ = tr.ServeFeed(ctx, faultA) }()
	go func() { _ = tr.ServeFeed(ctx, faultB) }()

	readyCtx, readyCancel := context.WithTimeout(ctx, 5*time.Second)
	err = tr.Client().WaitReady(readyCtx)
	readyCancel()
	if err != nil {
		log.Fatalf("session never established: %v", err)
	}

	fmt.Printf("livefeed: trading %s for %v (feeds %s/%s, orders %s)\n",
		symbol, *runFor, feedA.LocalAddr(), feedB.LocalAddr(), srv.OrderAddr())
	if *drop > 0 || *dup > 0 || *reorder > 0 || *corrupt > 0 {
		fmt.Printf("livefeed: feed faults A[%v] B[%v]\n", pfA, pfB)
	}
	if *reset > 0 {
		fmt.Printf("livefeed: order-entry reset every %d bytes\n", *reset)
	}
	fmt.Println()

	<-ctx.Done()

	fs := tr.FeedStats()
	as := tr.ArbiterStats()
	cs := tr.Client().Stats()
	fmt.Printf("\nsession done: %d datagrams (%d bad), %d inferences, position %d\n",
		fs.Datagrams, fs.BadDatagrams, tr.Serve().Inferences(securityID), pipeline.Trader().Position())
	fmt.Printf("  arbiter: %d delivered, %d duplicates suppressed, %d gaps, %d snapshot recoveries\n",
		as.Delivered, as.Duplicates, as.Gaps, as.Recoveries)
	fmt.Printf("  orders: %d routed, %d suppressed while degraded\n", fs.OrdersRouted, fs.Suppressed)
	fmt.Printf("  session: %d dials, %d established, %d reconnects, %d heartbeats, %d cancels-on-reconnect\n",
		cs.Dials, cs.Sessions, cs.Reconnects, cs.HeartbeatsSent, cs.CancelsOnReconnect)
	if fA, fB := faultA.Stats(), faultB.Stats(); fA.Dropped+fB.Dropped+fA.Corrupted+fB.Corrupted > 0 {
		fmt.Printf("  faults: A dropped %d dup %d reordered %d corrupted %d | B dropped %d dup %d reordered %d corrupted %d\n",
			fA.Dropped, fA.Duplicated, fA.Reordered, fA.Corrupted,
			fB.Dropped, fB.Duplicated, fB.Reordered, fB.Corrupted)
	}
}
