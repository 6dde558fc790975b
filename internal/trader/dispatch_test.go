package trader

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/serve"
	"lighttrader/internal/tensor"
	"lighttrader/internal/testutil"
	"lighttrader/internal/trading"
)

// orderWrites is a session conn counting the writes that carry order frames,
// and the frames in them (handshake and heartbeat writes are not orders).
type orderWrites struct {
	net.Conn
	mu             sync.Mutex
	writes, frames int
}

func (c *orderWrites) Write(b []byte) (int, error) {
	n := 0
	for rest := b; ; n++ {
		f, used, err := orderentry.DecodeFrame(rest)
		if err != nil || f.Request == nil {
			break
		}
		rest = rest[used:]
	}
	if n > 0 {
		c.mu.Lock()
		c.writes++
		c.frames += n
		c.mu.Unlock()
	}
	return c.Conn.Write(b)
}

// TestCoalescedSendAgainstVenue holds the coalesced write to the wire: one
// recorded stretch of a live venue's feed is traded twice against that venue,
// once with every dispatch one packet (inline: one write per order) and once
// queued whole before the lane is released (one dispatch, so one write
// carrying every order). The venue must read every frame of the run — each
// order acked filled — and both runs must end with the same position and an
// empty ledger; only the write count may differ.
func TestCoalescedSendAgainstVenue(t *testing.T) {
	const (
		sec      = int32(7)
		mid      = int64(450000)
		maxPos   = 12
		wantAcks = 2 * maxPos // accepted + filled, per order
	)
	feedConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer feedConn.Close()
	srv, stopVenue := testutil.StartVenue(t, testutil.StaticBook(t, sec), 10*time.Millisecond, feedConn)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Record the feed while a maker churns a deep bid: ticks that fill the
	// feature window without moving the touch, with the venue's periodic
	// snapshots (the full seeded book) among them.
	maker := testutil.DialSession(t, srv.OrderAddr())
	go func() {
		for id := uint64(1000); id < 1000+2*nn.Window; id++ {
			for _, req := range []exchange.Request{
				{Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: id, Side: lob.Bid, Price: mid - 5, Qty: 1},
				{Kind: exchange.ReqCancel, SecurityID: sec, ClOrdID: id},
			} {
				if _, err := maker.Write(orderentry.AppendRequest(nil, req)); err != nil {
					return
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var datagrams [][]byte
	buf := make([]byte, 64<<10)
	for len(datagrams) < 4*nn.Window {
		_ = feedConn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _, err := feedConn.ReadFrom(buf)
		if err != nil {
			t.Fatalf("feed went quiet after %d datagrams: %v", len(datagrams), err)
		}
		datagrams = append(datagrams, append([]byte(nil), buf[:n]...))
	}

	type outcome struct {
		orders, writes, frames, filled int
		position                       int64
	}
	trade := func(t *testing.T, scfg serve.Config, firstID uint64, prefill bool) outcome {
		t.Helper()
		p, err := core.NewPipeline("ESU6", sec, nil, offload.Normalizer{}, trading.Config{
			SecurityID: sec, OrderQty: 1, MaxPosition: maxPos, FirstClOrdID: firstID})
		if err != nil {
			t.Fatal(err)
		}
		p.SetPredictor(func(*tensor.Tensor) (nn.Direction, float32, error) { return nn.Up, 0.9, nil })
		mp := core.NewMultiPipeline()
		if err := mp.Attach(p); err != nil {
			t.Fatal(err)
		}
		conn := &orderWrites{}
		var ackMu sync.Mutex
		filled := map[uint64]bool{}
		mt, err := NewMulti(Config{
			UUID: 0xCAFE24 + firstID, KeepAliveMillis: 200,
			Dial: func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				c, err := d.DialContext(ctx, "tcp", srv.OrderAddr().String())
				conn.Conn = c
				return conn, err
			},
			OnAck: func(a orderentry.ExecAck) {
				if a.Exec == exchange.ExecFilled {
					ackMu.Lock()
					filled[a.ClOrdID] = true
					ackMu.Unlock()
				}
			},
		}, mp, 8, scfg)
		if err != nil {
			t.Fatal(err)
		}
		runCtx, stop := context.WithCancel(ctx)
		defer stop()
		joined := make(chan struct{}, 2)
		go func() { _ = mt.Client().Run(runCtx); joined <- struct{}{} }()
		readyCtx, readyCancel := context.WithTimeout(runCtx, 5*time.Second)
		defer readyCancel()
		if err := mt.Client().WaitReady(readyCtx); err != nil {
			t.Fatalf("session never established: %v", err)
		}
		feed := func() {
			for _, d := range datagrams {
				if err := mt.OnDatagram(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		if prefill {
			feed() // no lane is running: the whole recording queues
		}
		go func() { _ = mt.Run(runCtx); joined <- struct{}{} }()
		if !prefill {
			feed()
		}
		mt.Serve().Drain()
		testutil.WaitFor(t, 5*time.Second, "every order's accept and fill", func() bool {
			return mt.Client().Stats().AcksReceived >= wantAcks
		})
		stop()
		<-joined
		<-joined

		fs, st := mt.FeedStats(), mt.Serve().Stats()
		if fs.Suppressed != 0 || fs.OrdersRouted != st.Orders {
			t.Fatalf("%d routed + %d suppressed of %d generated; want all routed", fs.OrdersRouted, fs.Suppressed, st.Orders)
		}
		if n := len(mt.Client().orders); n != 0 {
			t.Errorf("ledger holds %d orders after every fill: %+v", n, mt.Client().orders)
		}
		if prefill && st.Batches != 1 {
			t.Fatalf("%d dispatches, want the queued recording in one", st.Batches)
		}
		return outcome{orders: st.Orders, writes: conn.writes, frames: conn.frames,
			filled: len(filled), position: p.Trader().Position()}
	}

	perOrder := trade(t, serve.Config{Lanes: 0}, 5000, false)
	if perOrder.orders != maxPos || perOrder.writes != maxPos || perOrder.frames != maxPos {
		t.Fatalf("one packet per dispatch: %+v; want %d orders, one write each", perOrder, maxPos)
	}
	batched := trade(t, serve.Config{Lanes: 1, MaxQueue: len(datagrams) + 1}, 6000, true)
	if batched.writes != 1 || batched.writes >= batched.orders {
		t.Errorf("one dispatch of %d orders took %d writes, want 1", batched.orders, batched.writes)
	}
	batched.writes = perOrder.writes
	if batched != perOrder {
		t.Errorf("coalesced run ended at %+v, the per-order run at %+v (writes aside)", batched, perOrder)
	}
	if perOrder.filled != maxPos || perOrder.position != maxPos {
		t.Errorf("per-order run: %d orders filled, position %d; want %d and %d", perOrder.filled, perOrder.position, maxPos, maxPos)
	}
	cancel()
	stopVenue()
}
