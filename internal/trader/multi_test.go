package trader_test

import (
	"context"
	"net"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/lob"
	"lighttrader/internal/serve"
	"lighttrader/internal/testutil"
	"lighttrader/internal/trader"
)

// TestMultiTraderLiveLoop runs the concurrent serving runtime inside the
// live tick-to-trade loop: venue feed in through the arbiter, one lane of
// online dispatch, orders surfacing asynchronously through the degradation
// gate to a real order-entry session, and the book mirror converging to the
// venue book at quiesce.
func TestMultiTraderLiveLoop(t *testing.T) {
	leak := testutil.StartLeakCheck()

	feedConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A short quiet session the venue plays out; its end is the quiesce.
	src := testutil.ShortScenario(t, "quiet", 23, 1.5)
	sec := src.Script().Instruments[0].SecurityID
	srv, stopVenue := testutil.StartVenue(t, src, 50*time.Millisecond, feedConn)
	ctx, cancel := context.WithCancel(context.Background())

	mp := core.NewMultiPipeline()
	if err := mp.Attach(newScenarioPipeline(t, src)); err != nil {
		t.Fatal(err)
	}
	mt, err := trader.NewMulti(trader.Config{
		OrderAddr:          srv.OrderAddr().String(),
		UUID:               0xCAFE07,
		KeepAliveMillis:    200,
		BackoffSeed:        1,
		CancelOnDisconnect: true,
	}, mp, 8, serve.Config{Lanes: 1, MaxQueue: len(src.Packets()) + 1})
	if err != nil {
		t.Fatal(err)
	}
	// Lanes: 0 is the inline loop; only a negative count is refused.
	if _, err := trader.NewMulti(trader.Config{}, mp, 8, serve.Config{Lanes: -1}); err == nil {
		t.Fatal("NewMulti accepted a negative lane count")
	}

	clientCtx, clientCancel := context.WithCancel(ctx)
	clientDone := make(chan struct{})
	runDone := make(chan struct{})
	feedDone := make(chan struct{})
	go func() { defer close(clientDone); _ = mt.Client().Run(clientCtx) }()
	go func() { defer close(runDone); _ = mt.Run(ctx) }()
	go func() { defer close(feedDone); _ = mt.ServeFeed(ctx, feedConn) }()

	readyCtx, readyCancel := context.WithTimeout(ctx, 5*time.Second)
	if err := mt.Client().WaitReady(readyCtx); err != nil {
		t.Fatalf("session never established: %v", err)
	}
	readyCancel()

	// Orders are generated on the lane goroutine and must pass the gate
	// once the session is up and the feed clean.
	waitFor(t, 10*time.Second, "asynchronously routed orders", func() bool {
		return mt.FeedStats().OrdersRouted > 0
	})

	// Quiesce like the serial chaos test: stop our own trading; the script
	// ends inside the polling window below, and a periodic snapshot then
	// resynchronises the mirror.
	clientCancel()
	<-clientDone

	var venueSnap, local lob.Snapshot
	converged := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		vs := srv.Snapshot(sec)
		if bk, ok := mt.Book(sec); ok {
			venueSnap, local = vs, bk
			if booksMatch(venueSnap, local) {
				converged = true
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !converged {
		t.Logf("arbiter: %+v", mt.ArbiterStats())
		t.Logf("feed: %+v", mt.FeedStats())
		t.Fatal("book mirror never converged")
	}

	if mt.ArbiterStats().Delivered == 0 {
		t.Fatal("nothing delivered through the arbiter")
	}
	// The venue keeps publishing, so a single Stats read can catch queries
	// queued or in flight (submitted, not yet accounted): wait for an instant
	// where the lanes are caught up instead of failing on the first read.
	var st serve.Stats
	waitFor(t, 5*time.Second, "runtime accounting to balance", func() bool {
		st = mt.Serve().Stats()
		return st.Served+st.Late+st.Dropped() == st.Submitted
	})
	if st.Submitted == 0 || st.Orders == 0 {
		t.Fatalf("runtime idle: %+v", st)
	}
	t.Logf("feed: %+v", mt.FeedStats())
	t.Logf("serve: %+v", st)

	cancel()
	stopVenue()
	<-runDone
	<-feedDone
	feedConn.Close()

	leak.Verify(t, 5*time.Second)
}
