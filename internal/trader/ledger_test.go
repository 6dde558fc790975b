package trader

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
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

// tornConn accepts okWrites writes, then fails every later one — a session
// that drops under a send — and counts the writes it took.
type tornConn struct {
	net.Conn // nil: only Write is ever called
	okWrites int
	writes   int
}

func (c *tornConn) Write(b []byte) (int, error) {
	if c.okWrites == 0 {
		return 0, errors.New("connection reset")
	}
	c.okWrites--
	c.writes++
	return len(b), nil
}

// establishedClient is a Client whose session is up on a conn that takes
// okWrites writes; acks its ledger forwards are appended to *acks.
func establishedClient(cfg Config, okWrites int, acks *[]orderentry.ExecAck) *Client {
	if acks != nil {
		cfg.OnAck = func(a orderentry.ExecAck) { *acks = append(*acks, a) }
	}
	c := NewClient(cfg)
	c.onEstablished(&tornConn{okWrites: okWrites}, orderentry.NewClientSession(1))
	return c
}

func mustSend(t *testing.T, c *Client, req exchange.Request) {
	t.Helper()
	if _, err := c.Send(req); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerMapRetirement pins the lifecycle of the live-order ledger, the
// map that says which acks have an owner: entries must retire on terminal
// acks AND on cumulative fills, or a long-running live session leaks one
// entry per order ever sent; and only acks for ids it holds are forwarded.
func TestOwnerMapRetirement(t *testing.T) {
	const sec = int32(7)
	var acks []orderentry.ExecAck
	c := establishedClient(Config{}, 1<<30, &acks)
	ack := func(id uint64, exec exchange.ExecType, qty int64) (forwarded bool) {
		n := len(acks)
		c.handleAck(orderentry.ExecAck{ClOrdID: id, SecurityID: sec, Exec: exec, Qty: qty})
		return len(acks) == n+1
	}
	live := func(id uint64) bool { _, ok := c.orders[id]; return ok }

	mustSend(t, c, exchange.Request{Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: 1, Qty: 10})
	mustSend(t, c, exchange.Request{Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: 2, Qty: 5})
	mustSend(t, c, exchange.Request{Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: 3, Qty: 5, Type: exchange.Market})
	if len(c.orders) != 3 {
		t.Fatalf("tracked %d orders, want 3", len(c.orders))
	}

	// Unknown ids are not forwarded and leave the ledger alone.
	if ack(99, exchange.ExecFilled, 1) || len(c.orders) != 3 {
		t.Fatal("ack for an unknown ClOrdID was forwarded or touched the ledger")
	}

	// Partial fills run down the remaining qty; the id retires at zero.
	if !ack(1, exchange.ExecPartialFill, 4) {
		t.Fatal("partial fill not forwarded")
	}
	if !live(1) {
		t.Fatal("partially filled order retired early")
	}
	if !ack(1, exchange.ExecPartialFill, 6) {
		t.Fatal("completing fill not forwarded")
	}
	if live(1) {
		t.Fatal("fully filled order (via partials) not retired")
	}

	// One fill per maker matched: every one is forwarded, and the id lives
	// until the fill that completes the order.
	if !ack(2, exchange.ExecPartialFill, 2) || !ack(2, exchange.ExecPartialFill, 2) || !live(2) {
		t.Fatal("multi-maker fills: a partial was dropped or retired the order early")
	}
	if !ack(2, exchange.ExecFilled, 1) || live(2) {
		t.Fatal("completing ExecFilled not forwarded, or order not retired")
	}
	// Once retired, a straggler for the id has no owner.
	if ack(2, exchange.ExecFilled, 1) {
		t.Fatal("ack for a retired id was forwarded")
	}

	// Cancels and rejects retire too.
	if !ack(3, exchange.ExecCanceled, 0) {
		t.Fatal("cancel not forwarded")
	}
	if len(c.orders) != 0 {
		t.Fatalf("ledger holds %d entries after all orders terminated", len(c.orders))
	}

	// A replace retires the id it replaced once the venue confirms it.
	mustSend(t, c, exchange.Request{Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: 4, Qty: 5})
	mustSend(t, c, exchange.Request{Kind: exchange.ReqReplace, SecurityID: sec, ClOrdID: 4, NewClOrdID: 5, Qty: 8})
	if len(c.orders) != 2 {
		t.Fatalf("replace tracking holds %d entries, want 2", len(c.orders))
	}
	if !ack(5, exchange.ExecReplaced, 8) {
		t.Fatal("replace ack not forwarded")
	}
	if live(4) {
		t.Fatal("replaced-away id not retired")
	}
	if !ack(5, exchange.ExecFilled, 8) {
		t.Fatal("replacement fill not forwarded")
	}
	if len(c.orders) != 0 {
		t.Fatalf("ledger holds %d entries at flat", len(c.orders))
	}
	for _, a := range acks {
		if a.SecurityID != sec {
			t.Fatalf("forwarded ack lost its security id: %+v", a)
		}
	}
}

// TestReplacedOrderLeavesReconnectSweep pins the replace leak's fix where it
// showed: the venue acks a replace only under the new id, so the replaced-away
// id used to sit in the client's map until a reconnect sweep cancelled it (and
// was rejected). The sweep after a confirmed replace cancels one order — the
// replacement — and market orders, which never rest, are not swept at all.
func TestReplacedOrderLeavesReconnectSweep(t *testing.T) {
	c := establishedClient(Config{CancelOnDisconnect: true}, 1<<30, nil)
	mustSend(t, c, exchange.Request{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 4, Qty: 5})
	mustSend(t, c, exchange.Request{Kind: exchange.ReqReplace, SecurityID: 7, ClOrdID: 4, NewClOrdID: 5, Qty: 8})
	mustSend(t, c, exchange.Request{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 6, Qty: 1, Type: exchange.Market})
	c.handleAck(orderentry.ExecAck{ClOrdID: 5, SecurityID: 7, Exec: exchange.ExecReplaced, Qty: 8})

	c.teardown()
	c.onEstablished(&tornConn{okWrites: 1 << 30}, orderentry.NewClientSession(1))
	if got := c.Stats().CancelsOnReconnect; got != 1 {
		t.Fatalf("reconnect sweep sent %d cancels, want 1 (the replacement only)", got)
	}
}

// TestRouteOrdersAvoidsFeedLock pins the lock rule: the order gate must
// complete while feedMu is held, because inline dispatch (Lanes: 0) runs
// routeOrders on the feed goroutine under feedMu.
func TestRouteOrdersAvoidsFeedLock(t *testing.T) {
	mt := &MultiTrader{client: NewClient(Config{})}
	// No session was ever established: the gate suppresses.

	mt.feedMu.Lock()
	defer mt.feedMu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		mt.routeOrders([]exchange.Request{{Kind: exchange.ReqNew, ClOrdID: 1, Qty: 1}})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("routeOrders blocked on the feed lock (inline dispatch would deadlock)")
	}
	if got := mt.FeedStats().Suppressed; got != 1 {
		t.Fatalf("Suppressed = %d, want 1", got)
	}
}

// TestRouteOrdersStopsTrackingAtFailedSend pins the failure rule of the
// coalesced send: a dispatch's orders go out in one write, so they share one
// fate. A session that is not there refuses them before anything is written:
// none may enter the ledger (no ack could ever retire them — a leak for the
// life of the process) and all count as suppressed. A write that fails may
// have delivered any prefix of its frames: every order stays tracked and
// counts as routed, and the reconnect sweep — one write too — cancels them
// all, so the venue's answers empty the ledger and nothing leaks past it.
func TestRouteOrdersStopsTrackingAtFailedSend(t *testing.T) {
	batch := []exchange.Request{
		{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 1, Qty: 1, Type: exchange.Limit},
		{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 2, Qty: 1, Type: exchange.Limit},
		{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 3, Qty: 1, Type: exchange.Limit},
		{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 4, Qty: 1, Type: exchange.Limit},
	}

	t.Run("session down", func(t *testing.T) {
		client := establishedClient(Config{}, 1<<30, nil)
		client.teardown() // dropped after the last dispatch; the feed half of the gate is open
		mt := &MultiTrader{client: client}
		mt.routeOrders(batch)
		if len(client.orders) != 0 {
			t.Errorf("refused orders entered the ledger: %+v", client.orders)
		}
		if fs := mt.FeedStats(); fs.OrdersRouted != 0 || fs.Suppressed != len(batch) {
			t.Errorf("routed %d, suppressed %d; want 0 and %d", fs.OrdersRouted, fs.Suppressed, len(batch))
		}
	})

	t.Run("write fails", func(t *testing.T) {
		client := establishedClient(Config{CancelOnDisconnect: true}, 0, nil)
		mt := &MultiTrader{client: client}
		mt.routeOrders(batch)
		if len(client.orders) != len(batch) {
			t.Errorf("%d of %d orders tracked after a failed write; any may have landed", len(client.orders), len(batch))
		}
		if fs := mt.FeedStats(); fs.OrdersRouted != len(batch) || fs.Suppressed != 0 {
			t.Errorf("routed %d, suppressed %d; want %d and 0", fs.OrdersRouted, fs.Suppressed, len(batch))
		}
		if sent := client.Stats().OrdersSent; sent != 0 {
			t.Errorf("client counts %d orders sent on a write that failed", sent)
		}

		// The session comes back: one write cancels all four, the venue
		// rejects the cancels of orders that never landed, the ledger is empty.
		client.teardown()
		conn := &tornConn{okWrites: 1 << 30}
		client.onEstablished(conn, orderentry.NewClientSession(1))
		if got := client.Stats().CancelsOnReconnect; got != len(batch) || conn.writes != 1 {
			t.Fatalf("reconnect sweep sent %d cancels in %d writes, want %d in 1", got, conn.writes, len(batch))
		}
		for _, req := range batch {
			client.handleAck(orderentry.ExecAck{ClOrdID: req.ClOrdID, SecurityID: req.SecurityID, Exec: exchange.ExecRejected})
		}
		if len(client.orders) != 0 {
			t.Errorf("ledger holds %d orders after the sweep was answered: %+v", len(client.orders), client.orders)
		}
	})
}

// TestMultiMakerFillSettlesWholeOrder runs one order end to end against a
// live venue: a 3-lot buy crosses three resting 1-lot asks, so the venue
// answers with one fill per maker. Every fill must reach the trading engine
// (position 3, not 1), and the completing one must retire the order from the
// client's ledger and from the engine's side table.
func TestMultiMakerFillSettlesWholeOrder(t *testing.T) {
	for _, lanes := range []int{0, 1} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { multiMakerFill(t, lanes) })
	}
}

func multiMakerFill(t *testing.T, lanes int) {
	const (
		sec = int32(7)
		mid = int64(450000)
	)
	feedConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer feedConn.Close()
	srv, _ := testutil.StartVenue(t, testutil.StaticBook(t, sec), 0, feedConn)

	// One buy of 3 lots at the best ask, on the first full feature window;
	// the position limit then holds every later signal back.
	p, err := core.NewPipeline("ESU6", sec, nil, offload.Normalizer{}, trading.Config{
		SecurityID: sec, OrderQty: 3, MaxPosition: 3, FirstClOrdID: 5000})
	if err != nil {
		t.Fatal(err)
	}
	p.SetPredictor(func(*tensor.Tensor) (nn.Direction, float32, error) { return nn.Up, 0.9, nil })
	mp := core.NewMultiPipeline()
	if err := mp.Attach(p); err != nil {
		t.Fatal(err)
	}
	var sent []exchange.Request // written on the dispatching goroutine, read after it is joined
	mt, err := NewMulti(Config{OrderAddr: srv.OrderAddr().String(), UUID: 0xCAFE23, KeepAliveMillis: 200},
		mp, 8, serve.Config{Lanes: lanes, MaxQueue: 6 * nn.Window, // more packets than the makers below publish
			OnOrders: func(_ int32, reqs []exchange.Request) { sent = append(sent, reqs...) }})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joined := make(chan struct{}, 3)
	for _, run := range []func(){
		func() { _ = mt.Client().Run(ctx) },
		func() { _ = mt.Run(ctx) },
		func() { _ = mt.ServeFeed(ctx, feedConn) },
	} {
		go func() { run(); joined <- struct{}{} }()
	}
	readyCtx, readyCancel := context.WithTimeout(ctx, 5*time.Second)
	defer readyCancel()
	if err := mt.Client().WaitReady(readyCtx); err != nil {
		t.Fatalf("session never established: %v", err)
	}

	// The makers: a second established session rests three 1-lot asks
	// inside the seeded spread, then churns a deep bid — ticks that fill the
	// feature window without moving the touch — until the order is out.
	maker := testutil.DialSession(t, srv.OrderAddr())
	makerSend := func(req exchange.Request) {
		req.SecurityID = sec
		if _, err := maker.Write(orderentry.AppendRequest(nil, req)); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= 3; id++ {
		makerSend(exchange.Request{Kind: exchange.ReqNew, ClOrdID: 900 + id, Side: lob.Ask, Price: mid, Qty: 1})
	}
	for id := uint64(1000); mt.FeedStats().OrdersRouted == 0; id++ {
		if id == 1000+5*nn.Window {
			t.Fatalf("no order routed after %d ticks: feed %+v", 10*nn.Window, mt.FeedStats())
		}
		makerSend(exchange.Request{Kind: exchange.ReqNew, ClOrdID: id, Side: lob.Bid, Price: mid - 5, Qty: 1})
		makerSend(exchange.Request{Kind: exchange.ReqCancel, ClOrdID: id})
		time.Sleep(200 * time.Microsecond)
	}
	// Accepted + one fill per maker, then join every goroutine so the state
	// below is read after the last write to it.
	testutil.WaitFor(t, 5*time.Second, "the order's four acks", func() bool {
		return mt.Client().Stats().AcksReceived >= 4
	})
	cancel()
	for i := 0; i < cap(joined); i++ {
		<-joined
	}

	want := []exchange.Request{{Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: 5001,
		Side: lob.Bid, Type: exchange.Limit, Price: mid, Qty: 3}}
	if !reflect.DeepEqual(sent, want) {
		t.Fatalf("orders sent = %+v, want %+v", sent, want)
	}
	if got := p.Trader().Position(); got != 3 {
		t.Errorf("engine position = %d, want 3 (every maker's fill routed)", got)
	}
	if n := len(mt.Client().orders); n != 0 {
		t.Errorf("ledger holds %d orders after the completing fill: %+v", n, mt.Client().orders)
	}
	// The engine's side table is private: probe it. A retired id takes the
	// report's own side (a sell: position 2); a live one would override it
	// with the order's (a buy: position 4).
	p.OnExecReport(exchange.ExecReport{Exec: exchange.ExecPartialFill, ClOrdID: 5001, Side: lob.Ask, Qty: 1})
	if got := p.Trader().Position(); got != 2 {
		t.Errorf("engine still holds the filled order's side record (position %d after a probe sell, want 2)", got)
	}
}
