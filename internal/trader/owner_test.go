package trader

import (
	"errors"
	"net"
	"testing"
	"time"

	"lighttrader/internal/exchange"
	"lighttrader/internal/orderentry"
)

// TestOwnerMapRetirement pins the ack-routing map's lifecycle: entries must
// retire on terminal acks AND on cumulative fills, or a long-running live
// session leaks one entry per order ever sent.
func TestOwnerMapRetirement(t *testing.T) {
	mt := &MultiTrader{owner: make(map[uint64]liveOrder)}
	const sec = int32(7)

	mt.trackOrder(sec, exchange.Request{Kind: exchange.ReqNew, ClOrdID: 1, Qty: 10})
	mt.trackOrder(sec, exchange.Request{Kind: exchange.ReqNew, ClOrdID: 2, Qty: 5})
	mt.trackOrder(sec, exchange.Request{Kind: exchange.ReqNew, ClOrdID: 3, Qty: 5})
	if len(mt.owner) != 3 {
		t.Fatalf("tracked %d orders, want 3", len(mt.owner))
	}

	// Unknown ids resolve to nothing and leave the map alone.
	if _, ok := mt.resolveAck(orderentry.ExecAck{ClOrdID: 99, Exec: exchange.ExecFilled}); ok {
		t.Fatal("unknown ClOrdID resolved")
	}

	// Partial fills run down the remaining qty; the id retires at zero.
	if s, ok := mt.resolveAck(orderentry.ExecAck{ClOrdID: 1, Exec: exchange.ExecPartialFill, Qty: 4}); !ok || s != sec {
		t.Fatalf("partial fill resolved (%d, %v), want (%d, true)", s, ok, sec)
	}
	if _, live := mt.owner[1]; !live {
		t.Fatal("partially filled order retired early")
	}
	if _, ok := mt.resolveAck(orderentry.ExecAck{ClOrdID: 1, Exec: exchange.ExecPartialFill, Qty: 6}); !ok {
		t.Fatal("completing fill did not resolve")
	}
	if _, live := mt.owner[1]; live {
		t.Fatal("fully filled order (via partials) not retired")
	}

	// A full fill is terminal in one ack.
	if _, ok := mt.resolveAck(orderentry.ExecAck{ClOrdID: 2, Exec: exchange.ExecFilled, Qty: 5}); !ok {
		t.Fatal("full fill did not resolve")
	}
	if _, live := mt.owner[2]; live {
		t.Fatal("filled order not retired")
	}

	// Cancels and rejects retire too (the pre-existing behaviour).
	if _, ok := mt.resolveAck(orderentry.ExecAck{ClOrdID: 3, Exec: exchange.ExecCanceled}); !ok {
		t.Fatal("cancel did not resolve")
	}
	if len(mt.owner) != 0 {
		t.Fatalf("owner map holds %d entries after all orders terminated", len(mt.owner))
	}

	// A replace retires the id it replaced once the venue confirms it.
	mt.trackOrder(sec, exchange.Request{Kind: exchange.ReqNew, ClOrdID: 4, Qty: 5})
	mt.trackOrder(sec, exchange.Request{Kind: exchange.ReqReplace, ClOrdID: 4, NewClOrdID: 5, Qty: 8})
	if len(mt.owner) != 2 {
		t.Fatalf("replace tracking holds %d entries, want 2", len(mt.owner))
	}
	if _, ok := mt.resolveAck(orderentry.ExecAck{ClOrdID: 5, Exec: exchange.ExecReplaced, Qty: 8}); !ok {
		t.Fatal("replace ack did not resolve")
	}
	if _, live := mt.owner[4]; live {
		t.Fatal("replaced-away id not retired")
	}
	if _, ok := mt.resolveAck(orderentry.ExecAck{ClOrdID: 5, Exec: exchange.ExecFilled, Qty: 8}); !ok {
		t.Fatal("replacement fill did not resolve")
	}
	if len(mt.owner) != 0 {
		t.Fatalf("owner map holds %d entries at flat", len(mt.owner))
	}
}

// TestRouteOrdersAvoidsFeedLock pins the deadlock fix: the lane-side order
// gate must complete while feedMu is held, because under Backpressure the
// feed pump holds feedMu while parked inside serve.SubmitPacket waiting for
// a lane to drain — and the lane can only drain by finishing routeOrders.
func TestRouteOrdersAvoidsFeedLock(t *testing.T) {
	mt := &MultiTrader{owner: make(map[uint64]liveOrder), client: NewClient(Config{})}
	// No session was ever established: the gate suppresses.

	mt.feedMu.Lock()
	defer mt.feedMu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		mt.routeOrders(1, []exchange.Request{{Kind: exchange.ReqNew, ClOrdID: 1, Qty: 1}})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("routeOrders blocked on the feed lock (ABBA deadlock with Backpressure)")
	}
	if got := mt.FeedStats().Suppressed; got != 1 {
		t.Fatalf("Suppressed = %d, want 1", got)
	}
}

// tornConn accepts okWrites writes, then fails every later one — a session
// that drops between the gate's Ready check and a batch's k-th write.
type tornConn struct {
	net.Conn // nil: only Write is ever called
	okWrites int
}

func (c *tornConn) Write(b []byte) (int, error) {
	if c.okWrites == 0 {
		return 0, errors.New("connection reset")
	}
	c.okWrites--
	return len(b), nil
}

// TestRouteOrdersStopsTrackingAtFailedSend pins the mid-batch failure rule:
// orders after the one whose write failed are never written, so no ack can
// ever retire them — they must not enter the owner map (a leak for the life
// of the process) nor count as routed. The failed order itself stays
// tracked: a torn write may have reached the venue.
func TestRouteOrdersStopsTrackingAtFailedSend(t *testing.T) {
	client := NewClient(Config{})
	client.conn = &tornConn{okWrites: 1}
	client.sess = orderentry.NewClientSession(1)
	client.ready = true
	mt := &MultiTrader{owner: make(map[uint64]liveOrder), client: client}

	mt.routeOrders(7, []exchange.Request{
		{Kind: exchange.ReqNew, ClOrdID: 1, Qty: 1, Type: exchange.Limit},
		{Kind: exchange.ReqNew, ClOrdID: 2, Qty: 1, Type: exchange.Limit}, // write fails here
		{Kind: exchange.ReqNew, ClOrdID: 3, Qty: 1, Type: exchange.Limit},
		{Kind: exchange.ReqNew, ClOrdID: 4, Qty: 1, Type: exchange.Limit},
	})

	for id, want := range map[uint64]bool{1: true, 2: true, 3: false, 4: false} {
		if _, tracked := mt.owner[id]; tracked != want {
			t.Errorf("order %d tracked = %v, want %v", id, tracked, want)
		}
	}
	if fs := mt.FeedStats(); fs.OrdersRouted != 2 || fs.Suppressed != 2 {
		t.Errorf("routed %d, suppressed %d; want 2 and 2", fs.OrdersRouted, fs.Suppressed)
	}
	if sent := client.Stats().OrdersSent; sent != 1 {
		t.Errorf("client wrote %d orders, want 1", sent)
	}
}
