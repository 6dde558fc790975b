// Livefeed: the full tick-to-trade loop over real sockets, with optional
// network chaos.
//
// It boots the wire-level exchange simulator in-process (the quiet market
// scenario played in real time, redundant A/B UDP market data out, TCP
// iLink-style order entry in) and runs the resilient
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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"lighttrader"
	"lighttrader/internal/exchange"
	"lighttrader/internal/faultnet"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/serve"
	"lighttrader/internal/trader"
	"lighttrader/internal/venue"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "livefeed:", err)
		os.Exit(1)
	}
}

// run trades for -dur, or until ctx is done, and returns once every
// goroutine it started has.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("livefeed", flag.ContinueOnError)
	var (
		runFor  = flags.Duration("dur", 3*time.Second, "how long to trade")
		drop    = flags.Float64("drop", 0, "per-feed datagram drop probability")
		dup     = flags.Float64("dup", 0, "per-feed duplicate probability")
		reorder = flags.Float64("reorder", 0, "per-feed reorder probability")
		corrupt = flags.Float64("corrupt", 0, "per-feed corruption probability")
		reset   = flags.Int64("reset", 0, "order-entry reset budget in bytes (0 = never)")
		seed    = flags.Int64("seed", 1, "fault sequence seed")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}

	// Two feed subscription sockets first, so the exchange knows where to
	// publish its redundant A and B streams.
	feedA, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer feedA.Close()
	feedB, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer feedB.Close()

	// The venue plays a quiet session; the normaliser below is calibrated
	// on another day (seed) of the same regime.
	market, err := lighttrader.ScenarioByName("quiet", 7)
	if err != nil {
		return err
	}
	ins := market.Script().Instruments[0]
	srv, err := venue.NewServer(venue.ServerConfig{
		OrderAddr:        "127.0.0.1:0",
		FeedAddr:         feedA.LocalAddr().String(),
		FeedAddrB:        feedB.LocalAddr().String(),
		Scenario:         market,
		SnapshotInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, *runFor)
	var wg sync.WaitGroup
	// Deferred before anything that can fail, so every return cancels the
	// goroutines below and waits for them.
	defer wg.Wait()
	defer cancel()
	goRun := func(f func(context.Context) error) {
		wg.Add(1)
		go func() { defer wg.Done(); _ = f(ctx) }()
	}
	goRun(srv.Run)

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
			conn = faultnet.WrapConn(conn, faultnet.ConnFaults{ResetAfter: *reset})
		}
		return conn, nil
	}

	// Calibrate the normaliser offline, as the paper does with historical
	// data, then build the pipeline and wrap it in the resilient trader.
	calibSrc, err := lighttrader.ScenarioByName("quiet", 1)
	if err != nil {
		return err
	}
	calib := calibSrc.Ticks()[:500]
	tcfg := lighttrader.DefaultTradingConfig(ins.SecurityID)
	tcfg.MinConfidence = 0.34
	pipeline, err := lighttrader.NewPipeline(ins.Symbol, ins.SecurityID,
		lighttrader.NewVanillaCNN(), lighttrader.CalibrateNormalizer(calib), tcfg)
	if err != nil {
		return err
	}

	// One subscription, Lanes: 0 — the whole loop runs inline on the feed
	// goroutine, the degenerate lane count of the multi-symbol runtime.
	mp := lighttrader.NewMultiPipeline()
	if err := mp.Attach(pipeline); err != nil {
		return err
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
				fmt.Fprintf(stdout, "  fill: clOrdID %d %d @ %d\n", ack.ClOrdID, ack.Qty, ack.Price)
			}
		},
		Logf: log.Printf,
	}, mp, 8, serve.Config{})
	if err != nil {
		return err
	}

	goRun(tr.Run) // starts the lanes; none at Lanes: 0
	goRun(tr.Client().Run)
	goRun(func(ctx context.Context) error { return tr.ServeFeed(ctx, faultA) })
	goRun(func(ctx context.Context) error { return tr.ServeFeed(ctx, faultB) })

	readyCtx, readyCancel := context.WithTimeout(ctx, 5*time.Second)
	err = tr.Client().WaitReady(readyCtx)
	readyCancel()
	if err != nil {
		return fmt.Errorf("session never established: %w", err)
	}

	fmt.Fprintf(stdout, "livefeed: trading %s for %v (feeds %s/%s, orders %s)\n",
		ins.Symbol, *runFor, feedA.LocalAddr(), feedB.LocalAddr(), srv.OrderAddr())
	if *drop > 0 || *dup > 0 || *reorder > 0 || *corrupt > 0 {
		fmt.Fprintf(stdout, "livefeed: feed faults A[%v] B[%v]\n", pfA, pfB)
	}
	if *reset > 0 {
		fmt.Fprintf(stdout, "livefeed: order-entry reset every %d bytes\n", *reset)
	}
	fmt.Fprintln(stdout)

	<-ctx.Done()
	wg.Wait()

	fs := tr.FeedStats()
	as := tr.ArbiterStats()
	cs := tr.Client().Stats()
	fmt.Fprintf(stdout, "\nsession done: %d datagrams (%d bad), %d inferences, position %d\n",
		fs.Datagrams, fs.BadDatagrams, tr.Serve().Inferences(ins.SecurityID), pipeline.Trader().Position())
	fmt.Fprintf(stdout, "  arbiter: %d delivered, %d duplicates suppressed, %d gaps, %d snapshot recoveries\n",
		as.Delivered, as.Duplicates, as.Gaps, as.Recoveries)
	acted, decisions := 0, pipeline.Trader().Decisions()
	for _, d := range decisions {
		if d.Acted {
			acted++
		}
	}
	fmt.Fprintf(stdout, "  decisions: %d acted on, %d suppressed by the trading engine's checks\n", acted, len(decisions)-acted)
	fmt.Fprintf(stdout, "  orders: %d routed, %d suppressed while degraded\n", fs.OrdersRouted, fs.Suppressed)
	fmt.Fprintf(stdout, "  session: %d dials, %d established, %d reconnects, %d heartbeats, %d cancels-on-reconnect\n",
		cs.Dials, cs.Sessions, cs.Reconnects, cs.HeartbeatsSent, cs.CancelsOnReconnect)
	if fA, fB := faultA.Stats(), faultB.Stats(); fA.Dropped+fB.Dropped+fA.Corrupted+fB.Corrupted > 0 {
		fmt.Fprintf(stdout, "  faults: A dropped %d dup %d reordered %d corrupted %d | B dropped %d dup %d reordered %d corrupted %d\n",
			fA.Dropped, fA.Duplicated, fA.Reordered, fA.Corrupted,
			fB.Dropped, fB.Duplicated, fB.Reordered, fB.Corrupted)
	}
	return nil
}
