package trader

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/mdclient"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/sbe"
	"lighttrader/internal/serve"
)

// FeedStats counts feed-side trader events.
type FeedStats struct {
	Datagrams    int // datagrams ingested across all feed sockets
	BadDatagrams int // undecodable (e.g. corrupted) datagrams discarded
	Suppressed   int // orders gated off while degraded
	OrdersRouted int // orders handed to the client
}

// MultiTrader is the live tick-to-trade loop: arbitrated A/B market data in
// through its mdclient.Arbiter, the serving runtime (N lanes of online
// Algorithm-1 dispatch) in the middle, and a resilient order-entry Client
// out. Orders surface through the runtime's sink — on lane goroutines, or on
// the feed goroutine at Lanes: 0, the degenerate inline configuration of the
// same loop — and pass the degradation gate before reaching the wire: while
// the feed is recovering from a gap or the session is re-establishing,
// freshly generated orders are suppressed, so the appliance degrades to flat
// rather than trading on a book it cannot trust.
type MultiTrader struct {
	client *Client
	srv    *serve.Server

	// feedMu serialises the single-goroutine arbiter. It is held across
	// arb.OnDatagram — which, under a Backpressure config, can park inside
	// serve.SubmitPacket until a lane drains — so nothing a lane goroutine
	// runs (routeOrders, onAck) may ever take it: that ABBA cycle would
	// deadlock the whole loop the first time a queue fills mid-delivery.
	// Lane-shared state lives in atomics and the client's ledger instead.
	feedMu sync.Mutex
	arb    *mdclient.Arbiter

	// Feed counters (atomics: bumped from the feed pump and lane goroutines).
	datagrams    atomic.Int64
	badDatagrams atomic.Int64
	suppressed   atomic.Int64
	ordersRouted atomic.Int64

	// feedDegraded caches arb.Recovering() for the order gate: lanes must
	// not touch the arbiter (single-goroutine) directly. The session half
	// of the gate is read from the client when an order batch is routed.
	feedDegraded atomic.Bool
}

// NewMulti assembles a MultiTrader over a subscription set. scfg configures
// the runtime (lane count, admission, probe); any OnOrders sink in it is
// chained after the degradation gate. Lanes: 0 runs the whole loop inline on
// the feed goroutine. The client's OnAck is chained so execution acks flow
// back into the owning pipeline's trading engine; any OnAck already present
// in cfg still runs. reorderWindow is the arbiter's, in packets (≤ 0 selects
// its default). Start the lanes with Run.
func NewMulti(cfg Config, mp *core.MultiPipeline, reorderWindow int, scfg serve.Config) (*MultiTrader, error) {
	t := &MultiTrader{}
	userSink := scfg.OnOrders
	scfg.OnOrders = func(sec int32, reqs []exchange.Request) {
		t.routeOrders(reqs)
		if userSink != nil {
			userSink(sec, reqs)
		}
	}
	srv, err := serve.New(mp, scfg)
	if err != nil {
		return nil, err
	}
	t.srv = srv
	t.arb = mdclient.New(t.deliver, reorderWindow)
	userAck := cfg.OnAck
	cfg.OnAck = func(ack orderentry.ExecAck) {
		t.onAck(ack)
		if userAck != nil {
			userAck(ack)
		}
	}
	t.client = NewClient(cfg)
	return t, nil
}

// deliver is the arbiter's consumer: every in-order packet goes to the lanes,
// and its orders leave through the gated sink. It runs under feedMu, inside
// OnDatagram.
func (t *MultiTrader) deliver(pkt sbe.Packet) {
	// The gate this packet's orders meet must be the feed state it was
	// delivered under: a healing snapshot clears recovery before it delivers
	// and drains the parked backlog in the same datagram, and inline the
	// sink fires before OnDatagram gets to refresh the gate.
	t.refreshGate()
	t.srv.SubmitPacket(t.srv.ArrivalNanos(pkt), pkt)
}

// refreshGate republishes the feed half of the order gate. It runs under
// feedMu, at every delivery and after every datagram (a gap declaration
// delivers nothing). It stores only on change: lanes read the flag per order
// batch, and an unconditional store would bounce its cache line per datagram.
func (t *MultiTrader) refreshGate() {
	if r := t.arb.Recovering(); r != t.feedDegraded.Load() {
		t.feedDegraded.Store(r)
	}
}

// Run starts the lane workers (none at Lanes: 0) and blocks until ctx is
// cancelled (run it alongside Client.Run and the ServeFeed pumps).
func (t *MultiTrader) Run(ctx context.Context) error { return t.srv.Run(ctx) }

// Client exposes the order-entry session owner.
func (t *MultiTrader) Client() *Client { return t.client }

// Serve exposes the underlying runtime (stats, snapshots, drain).
func (t *MultiTrader) Serve() *serve.Server { return t.srv }

// FeedStats returns feed-side counters.
func (t *MultiTrader) FeedStats() FeedStats {
	return FeedStats{
		Datagrams:    int(t.datagrams.Load()),
		BadDatagrams: int(t.badDatagrams.Load()),
		Suppressed:   int(t.suppressed.Load()),
		OrdersRouted: int(t.ordersRouted.Load()),
	}
}

// ArbiterStats returns the A/B arbitration counters.
func (t *MultiTrader) ArbiterStats() mdclient.Stats {
	t.feedMu.Lock()
	defer t.feedMu.Unlock()
	return t.arb.Stats()
}

// Book returns one instrument's local book mirror.
func (t *MultiTrader) Book(securityID int32) (lob.Snapshot, bool) {
	return t.srv.Snapshot(securityID, time.Now().UnixNano())
}

// OnDatagram ingests one datagram from either feed. Generated orders
// surface through the gated sink, not the return path.
func (t *MultiTrader) OnDatagram(buf []byte) error {
	t.datagrams.Add(1)
	t.feedMu.Lock()
	err := t.arb.OnDatagram(buf)
	t.refreshGate()
	t.feedMu.Unlock()
	if err != nil {
		t.badDatagrams.Add(1)
	}
	return err
}

// feedReadTick bounds how long an idle ServeFeed read blocks before it looks
// at ctx again: the pump's cancellation latency.
const feedReadTick = 100 * time.Millisecond

// ServeFeed reads datagrams from conn into the trader until ctx ends.
// Corrupt datagrams are counted and discarded — a lossy feed must degrade
// the loop, never kill it. Run one ServeFeed goroutine per redundant feed
// socket. The read deadline is re-armed only once it has expired: a busy
// socket pays one spurious timeout per feedReadTick, not a timer reset per
// datagram, and an idle one still sees ctx within feedReadTick. On a
// *net.UDPConn the datagram is read without its source address, which
// ReadFrom would allocate per datagram and the trader never looks at.
func (t *MultiTrader) ServeFeed(ctx context.Context, conn net.PacketConn) error {
	buf := make([]byte, 64<<10)
	read := func(b []byte) (int, error) {
		n, _, err := conn.ReadFrom(b)
		return n, err
	}
	if uc, ok := conn.(*net.UDPConn); ok {
		read = uc.Read
	}
	_ = conn.SetReadDeadline(time.Now().Add(feedReadTick))
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		n, err := read(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				_ = conn.SetReadDeadline(time.Now().Add(feedReadTick))
				continue
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		_ = t.OnDatagram(buf[:n]) // bad datagrams already counted
	}
}

// routeOrders is the order gate for the orders of one dispatch: suppressed
// while the feed is degraded or the session is down, otherwise written as
// one send (the client's ledger records them for ack settlement). Whatever
// entered the ledger counts as routed and the rest as suppressed — Send's
// failure rule decides which, under the same lock as the readiness check. It
// runs on whichever goroutine dispatches (a lane, or the feed goroutine
// inline) and must never take feedMu (see the field comment).
func (t *MultiTrader) routeOrders(reqs []exchange.Request) {
	routed := 0
	if !t.feedDegraded.Load() {
		// A session that dropped re-establishes on its own and
		// cancel-on-disconnect applies; the error has nothing to add here.
		routed, _ = t.client.Send(reqs...)
	}
	if routed > 0 { // one counter per dispatch: lanes share these cache lines
		t.ordersRouted.Add(int64(routed))
	}
	if routed < len(reqs) {
		t.suppressed.Add(int64(len(reqs) - routed))
	}
}

// onAck hands an execution ack the client's ledger knew to the pipeline of
// the instrument the ack names. It runs on the client's session goroutine and
// must never take feedMu.
func (t *MultiTrader) onAck(ack orderentry.ExecAck) {
	t.srv.OnExecReport(exchange.ExecReport{
		Exec: ack.Exec, SecurityID: ack.SecurityID,
		ClOrdID: ack.ClOrdID, Price: ack.Price, Qty: ack.Qty,
	})
}
