package trader_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/faultnet"
	"lighttrader/internal/lob"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/serve"
	"lighttrader/internal/testutil"
	"lighttrader/internal/trader"
)

// newSingleTrader builds the live loop over one instrument's pipeline.
func newSingleTrader(t *testing.T, cfg trader.Config, p *core.Pipeline, scfg serve.Config) *trader.MultiTrader {
	t.Helper()
	mp := core.NewMultiPipeline()
	if err := mp.Attach(p); err != nil {
		t.Fatal(err)
	}
	tr, err := trader.NewMulti(cfg, mp, 8, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// waitFor polls cond until it holds or the deadline lapses (shared
// testutil helper; kept as a local name for the call sites below).
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	testutil.WaitFor(t, d, what, cond)
}

// booksMatch compares the trader's book mirror against the venue's
// authoritative snapshot, level by level. Only price and aggregate
// quantity are compared: the market-data feed does not carry per-level
// order counts, so the mirror never learns them.
func booksMatch(venueSnap, local lob.Snapshot) bool {
	for i := 0; i < lob.DepthLevels; i++ {
		if venueSnap.Bids[i].Price != local.Bids[i].Price ||
			venueSnap.Bids[i].Qty != local.Bids[i].Qty ||
			venueSnap.Asks[i].Price != local.Asks[i].Price ||
			venueSnap.Asks[i].Qty != local.Asks[i].Qty {
			return false
		}
	}
	return true
}

// TestChaosLossyDualFeedBookConverges runs the full tick-to-trade loop with
// seeded drop/duplicate/reorder on both redundant feeds, then quiesces and
// requires the local book to match the venue book exactly. It also checks
// the run leaks no goroutines.
func TestChaosLossyDualFeedBookConverges(t *testing.T) {
	leak := testutil.StartLeakCheck()

	feedA, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	feedB, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faultA := faultnet.WrapPacketConn(feedA, faultnet.PacketFaults{
		Seed: 101, Drop: 0.35, Duplicate: 0.10, Reorder: 0.10})
	faultB := faultnet.WrapPacketConn(feedB, faultnet.PacketFaults{
		Seed: 202, Drop: 0.35, Duplicate: 0.10, Reorder: 0.10})

	// A short quiet session the venue plays out; its end is the quiesce.
	src := testutil.ShortScenario(t, "quiet", 11, 1.5)
	sec := src.Script().Instruments[0].SecurityID
	srv, stopVenue := testutil.StartVenue(t, src, 50*time.Millisecond, feedA, feedB)
	ctx, cancel := context.WithCancel(context.Background())

	tr := newSingleTrader(t, trader.Config{
		OrderAddr:          srv.OrderAddr().String(),
		UUID:               0xCAFE01,
		KeepAliveMillis:    200,
		BackoffSeed:        1,
		CancelOnDisconnect: true,
	}, newScenarioPipeline(t, src), serve.Config{})

	clientCtx, clientCancel := context.WithCancel(ctx)
	clientDone := make(chan struct{})
	feedDone := make(chan struct{}, 2)
	go func() { defer close(clientDone); _ = tr.Client().Run(clientCtx) }()
	go func() { _ = tr.ServeFeed(ctx, faultA); feedDone <- struct{}{} }()
	go func() { _ = tr.ServeFeed(ctx, faultB); feedDone <- struct{}{} }()

	readyCtx, readyCancel := context.WithTimeout(ctx, 5*time.Second)
	if err := tr.Client().WaitReady(readyCtx); err != nil {
		t.Fatalf("session never established: %v", err)
	}
	readyCancel()

	// Let the script churn the book through the lossy feeds to its end.
	time.Sleep(1500 * time.Millisecond)

	// Quiesce: the venue's flow has stopped; stop our own trading (the
	// pipeline's aggressive orders echo back as book updates and would
	// keep the book moving forever), and lift the faults so the next
	// periodic snapshot resynchronises the mirror against a static book.
	// With the client down, the degraded-mode gate suppresses any further
	// generated orders instead of erroring.
	clientCancel()
	<-clientDone
	faultA.SetEnabled(false)
	faultB.SetEnabled(false)

	var venueSnap, local lob.Snapshot
	converged := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		venueSnap = srv.Snapshot(sec)
		local, _ = tr.Book(sec)
		if booksMatch(venueSnap, local) {
			converged = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !converged {
		t.Logf("arbiter: %+v", tr.ArbiterStats())
		t.Logf("feed: %+v", tr.FeedStats())
		for i := 0; i < lob.DepthLevels; i++ {
			t.Logf("L%d venue bid %+v ask %+v | local bid %+v ask %+v",
				i, venueSnap.Bids[i], venueSnap.Asks[i], local.Bids[i], local.Asks[i])
		}
		t.Fatal("book mirror never converged")
	}

	stats := tr.ArbiterStats()
	if stats.Delivered == 0 {
		t.Fatal("nothing delivered through the arbiter")
	}
	if stats.Duplicates == 0 {
		t.Fatalf("dual lossy feeds produced no suppressed duplicates: %+v", stats)
	}
	if stats.Recoveries == 0 {
		t.Fatalf("35%% loss per feed never forced a snapshot recovery: %+v", stats)
	}
	fA, fB := faultA.Stats(), faultB.Stats()
	if fA.Dropped == 0 || fB.Dropped == 0 {
		t.Fatalf("fault layer injected no loss: A=%+v B=%+v", fA, fB)
	}
	if tr.FeedStats().Datagrams == 0 {
		t.Fatal("trader saw no datagrams")
	}
	t.Logf("feed: %+v", tr.FeedStats())
	t.Logf("arbiter: %+v", stats)
	t.Logf("inferences: %d", tr.Serve().Inferences(sec))

	cancel()
	stopVenue()
	<-feedDone
	<-feedDone
	feedA.Close()
	feedB.Close()

	// No goroutine leaks: everything spawned above must wind down.
	leak.Verify(t, 5*time.Second)
}

// TestChaosOrderEntryResetReconnects injects an abrupt connection reset
// into the first order-entry session. The client must re-establish with
// backoff, apply cancel-on-disconnect to its resting orders, and keep
// trading on the new session.
func TestChaosOrderEntryResetReconnects(t *testing.T) {
	const sec = 7
	srv, _ := testutil.StartVenue(t, testutil.StaticBook(t, sec), 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// First session dies after ~600 bytes cross it; later sessions are
	// clean.
	var dials atomic.Int32
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", srv.OrderAddr().String())
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			return faultnet.WrapConn(conn, faultnet.ConnFaults{ResetAfter: 600}), nil
		}
		return conn, nil
	}

	client := trader.NewClient(trader.Config{
		Dial:               dial,
		UUID:               0xCAFE02,
		KeepAliveMillis:    200,
		BackoffMin:         20 * time.Millisecond,
		BackoffSeed:        2,
		CancelOnDisconnect: true,
	})
	go func() { _ = client.Run(ctx) }()

	readyCtx, readyCancel := context.WithTimeout(ctx, 5*time.Second)
	if err := client.WaitReady(readyCtx); err != nil {
		t.Fatalf("first session never established: %v", err)
	}
	readyCancel()

	// Rest passive bids until the injected reset tears the session down.
	// Stop at the FIRST send error: the session is now torn, and sending
	// again could race past the reconnect's cancel sweep and rest an
	// order nothing ever cancels.
	clOrdID := uint64(9000)
	for i := 0; i < 200; i++ {
		clOrdID++
		if _, err := client.Send(exchange.Request{
			Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: clOrdID,
			Side: lob.Bid, Price: 449995, Qty: 1, Type: exchange.Limit,
		}); err != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	waitFor(t, 5*time.Second, "re-established session", func() bool {
		return client.Stats().Reconnects >= 1
	})
	readyCtx, readyCancel = context.WithTimeout(ctx, 5*time.Second)
	if err := client.WaitReady(readyCtx); err != nil {
		t.Fatalf("re-established session dropped again: %v", err)
	}
	readyCancel()
	stats := client.Stats()
	if stats.Sessions < 2 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.CancelsOnReconnect == 0 {
		t.Fatalf("cancel-on-disconnect sent no cancels: %+v", stats)
	}

	// The cancels must actually flatten the venue book back to its seeded
	// depth at our resting price.
	waitFor(t, 5*time.Second, "venue book flattened", func() bool {
		for _, lvl := range srv.Snapshot(sec).Bids {
			if lvl.Price == 449995 {
				return lvl.Qty == 100
			}
		}
		return false
	})

	// The new session still trades: a fresh order must be acked.
	before := client.Stats().AcksReceived
	if _, err := client.Send(exchange.Request{
		Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: 99999,
		Side: lob.Bid, Price: 449990, Qty: 1,
	}); err != nil {
		t.Fatalf("send on re-established session: %v", err)
	}
	waitFor(t, 3*time.Second, "ack on new session", func() bool {
		return client.Stats().AcksReceived > before
	})
}

// TestClientKeepAliveExpiryForcesReconnect runs the client against a venue
// stub that completes the handshake and then goes silent. The client's
// keep-alive monitor must declare the session dead and redial.
func TestClientKeepAliveExpiryForcesReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var accepts atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				sess := orderentry.NewVenueSession()
				buf := make([]byte, 0, 1024)
				tmp := make([]byte, 512)
				for {
					conn.SetReadDeadline(time.Now().Add(2 * time.Second))
					n, err := conn.Read(tmp)
					if err != nil {
						return
					}
					buf = append(buf, tmp[:n]...)
					for {
						f, consumed, derr := orderentry.DecodeSessionFrame(buf)
						if derr != nil {
							break
						}
						buf = buf[consumed:]
						out, _ := sess.OnFrame(f, time.Now().UnixNano())
						if out != nil {
							conn.Write(out)
						}
					}
					if sess.State() == orderentry.StateEstablished {
						// Handshake done — go silent; never heartbeat.
						time.Sleep(5 * time.Second)
						return
					}
				}
			}(conn)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := trader.NewClient(trader.Config{
		OrderAddr:       ln.Addr().String(),
		UUID:            0xCAFE03,
		KeepAliveMillis: 100,
		BackoffMin:      20 * time.Millisecond,
		BackoffSeed:     3,
	})
	go func() { _ = client.Run(ctx) }()

	waitFor(t, 5*time.Second, "keep-alive expiry and redial", func() bool {
		s := client.Stats()
		return s.KeepAliveExpiries >= 1 && accepts.Load() >= 2
	})
}
