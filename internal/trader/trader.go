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

// Trader is the full live tick-to-trade loop: arbitrated A/B market data in
// through core.FeedHandler, the serving runtime in the middle, and a
// resilient order-entry Client out. While the feed is recovering from a gap
// or the session is re-establishing, freshly generated orders are
// suppressed — the appliance degrades to flat rather than trading on a book
// it cannot trust.
//
// A Trader runs the serving runtime in its inline, single-lane
// configuration: the live serial path is the degenerate case of the same
// admission and dispatch code the multi-lane MultiTrader runs concurrently.
type Trader struct {
	client *Client

	securityID int32
	srv        *serve.Server

	mu    sync.Mutex
	feed  *core.FeedHandler
	stats FeedStats
}

// New assembles a Trader over one instrument's pipeline. The client's OnAck
// is chained so execution acks flow back into the pipeline's trading engine;
// any OnAck already present in cfg still runs.
func New(cfg Config, pipeline *core.Pipeline, reorderWindow int) *Trader {
	mp := core.NewMultiPipeline()
	if err := mp.Attach(pipeline); err != nil {
		panic(err) // fresh multi; a single attach cannot collide
	}
	srv, err := serve.New(mp, serve.Config{Lanes: 0})
	if err != nil {
		panic(err) // one subscription, inline mode; cannot fail
	}
	t := &Trader{srv: srv, securityID: pipeline.SecurityID()}
	t.feed = core.NewFeedHandlerFor(srv, reorderWindow)
	userAck := cfg.OnAck
	cfg.OnAck = func(ack orderentry.ExecAck) {
		t.onAck(ack)
		if userAck != nil {
			userAck(ack)
		}
	}
	t.client = NewClient(cfg)
	return t
}

// Client exposes the order-entry session owner (Run it alongside the feed).
func (t *Trader) Client() *Client { return t.client }

// FeedStats returns feed-side counters.
func (t *Trader) FeedStats() FeedStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// ArbiterStats returns the A/B arbitration counters.
func (t *Trader) ArbiterStats() mdclient.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.feed.Stats()
}

// Recovering reports whether the feed has declared a gap and awaits a
// snapshot.
func (t *Trader) Recovering() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.feed.Recovering()
}

// Book returns the pipeline's local book mirror.
func (t *Trader) Book() lob.Snapshot {
	snap, _ := t.srv.Snapshot(t.securityID, time.Now().UnixNano())
	return snap
}

// Inferences returns the pipeline's forward-pass count.
func (t *Trader) Inferences() int {
	return t.srv.Inferences(t.securityID)
}

// onAck serialises execution reports into the pipeline. Binary acks do not
// carry the side; the trading engine recalls it from its own records.
func (t *Trader) onAck(ack orderentry.ExecAck) {
	t.srv.OnExecReport(exchange.ExecReport{
		Exec: ack.Exec, SecurityID: t.securityID,
		ClOrdID: ack.ClOrdID, Price: ack.Price, Qty: ack.Qty,
	})
}

// OnDatagram ingests one datagram from either feed, routing any generated
// orders to the client unless the loop is degraded (feed recovering or
// session not established).
func (t *Trader) OnDatagram(buf []byte) error {
	t.mu.Lock()
	t.stats.Datagrams++
	reqs, err := t.feed.OnDatagram(buf)
	if err != nil {
		t.stats.BadDatagrams++
		t.mu.Unlock()
		return err
	}
	degraded := t.feed.Recovering() || !t.client.Ready()
	if degraded {
		t.stats.Suppressed += len(reqs)
		t.mu.Unlock()
		return nil
	}
	t.stats.OrdersRouted += len(reqs)
	// reqs aliases the feed handler's buffer, which the other feed leg's
	// goroutine reuses as soon as the lock drops: send from a copy.
	reqs = append([]exchange.Request(nil), reqs...)
	t.mu.Unlock()
	for _, req := range reqs {
		if err := t.client.Send(req); err != nil {
			// The session dropped between the gate and the write; the
			// client will re-establish and cancel-on-disconnect applies.
			return nil
		}
	}
	return nil
}

// ServeFeed reads datagrams from conn into the trader until ctx ends.
// Corrupt datagrams are counted and discarded — a lossy feed must degrade
// the loop, never kill it. Run one ServeFeed goroutine per redundant feed
// socket.
func (t *Trader) ServeFeed(ctx context.Context, conn net.PacketConn) error {
	return serveFeed(ctx, conn, t.OnDatagram)
}

// serveFeed is the shared datagram pump for both trader flavours.
func serveFeed(ctx context.Context, conn net.PacketConn, ingest func([]byte) error) error {
	buf := make([]byte, 64<<10)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		_ = ingest(buf[:n]) // bad datagrams already counted
	}
}

// MultiTrader is the multi-symbol live loop: arbitrated feed in, the
// concurrent serving runtime (N lanes of online Algorithm-1 dispatch) in the
// middle, one order-entry client out. Orders surface asynchronously on lane
// goroutines and pass the same degradation gate as the serial Trader before
// reaching the wire.
type MultiTrader struct {
	client *Client
	srv    *serve.Server

	// feedMu serialises the single-goroutine FeedHandler. It is held across
	// feed.OnDatagram — which, under a Backpressure config, can park inside
	// serve.SubmitPacket until a lane drains — so nothing a lane goroutine
	// runs (routeOrders, onAck) may ever take it: that ABBA cycle would
	// deadlock the whole loop the first time a queue fills mid-delivery.
	// Lane-shared state lives in atomics and ownerMu instead.
	feedMu sync.Mutex
	feed   *core.FeedHandler

	// Feed counters (atomics: bumped from the feed pump and lane goroutines).
	datagrams    atomic.Int64
	badDatagrams atomic.Int64
	suppressed   atomic.Int64
	ordersRouted atomic.Int64

	// degraded caches the feed/session health for the lane-side order gate:
	// lanes must not touch the FeedHandler (single-goroutine) directly.
	degraded atomic.Bool

	// owner maps in-flight client order ids to their instrument so acks
	// (which do not carry a security id on the wire) can be routed back.
	// Entries retire on terminal acks and on cumulative fills, so the map
	// tracks only the live order population in a long-running session.
	ownerMu sync.Mutex
	owner   map[uint64]liveOrder
}

// liveOrder is the ack-routing record of one in-flight client order.
type liveOrder struct {
	sec       int32
	remaining int64  // outstanding qty; the id retires when fills consume it
	replaces  uint64 // prior id this order replaced, retired on ExecReplaced
}

// NewMulti assembles a MultiTrader over a subscription set. scfg configures
// the runtime (lane count, admission, probe); any OnOrders sink in it is
// chained after the degradation gate, and Lanes must be ≥ 1 (use New for
// the inline single-symbol loop). Start the lanes with Run.
func NewMulti(cfg Config, mp *core.MultiPipeline, reorderWindow int, scfg serve.Config) (*MultiTrader, error) {
	if scfg.Lanes < 1 {
		return nil, errors.New("trader: MultiTrader needs at least one lane")
	}
	t := &MultiTrader{owner: make(map[uint64]liveOrder)}
	t.degraded.Store(true) // gated until the session is up and the feed clean
	userSink := scfg.OnOrders
	scfg.OnOrders = func(sec int32, reqs []exchange.Request) {
		t.routeOrders(sec, reqs)
		if userSink != nil {
			userSink(sec, reqs)
		}
	}
	srv, err := serve.New(mp, scfg)
	if err != nil {
		return nil, err
	}
	t.srv = srv
	t.feed = core.NewFeedHandlerFor(asyncSubmit{t}, reorderWindow)
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

// asyncSubmit adapts the concurrent runtime to core.PacketHandler: packets
// are enqueued for the lanes and no orders return synchronously.
type asyncSubmit struct{ t *MultiTrader }

func (a asyncSubmit) OnDecodedPacket(pkt sbe.Packet) ([]exchange.Request, error) {
	// The lanes retain the packet past this call, but the arbiter reuses its
	// decode buffer as soon as we return — clone into owned storage.
	a.t.srv.SubmitPacket(a.t.arrivalNanos(pkt), sbe.ClonePacket(pkt))
	return nil, nil
}

// arrivalNanos stamps a submission with the runtime's own arrival clock
// (the configured clock, or the packet's transact time under the logical
// clock — never wall time, which would break replay determinism and
// ratchet deadlines infeasible).
func (t *MultiTrader) arrivalNanos(pkt sbe.Packet) int64 {
	return t.srv.ArrivalNanos(pkt)
}

// Run starts the lane workers and blocks until ctx is cancelled (run it
// alongside Client.Run and the ServeFeed pumps).
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
	return t.feed.Stats()
}

// Recovering reports whether the feed has declared a gap.
func (t *MultiTrader) Recovering() bool {
	t.feedMu.Lock()
	defer t.feedMu.Unlock()
	return t.feed.Recovering()
}

// Book returns one instrument's local book mirror.
func (t *MultiTrader) Book(securityID int32) (lob.Snapshot, bool) {
	return t.srv.Snapshot(securityID, time.Now().UnixNano())
}

// OnDatagram ingests one datagram from either feed. Orders generated by the
// lanes surface through the gated sink, not the return path.
func (t *MultiTrader) OnDatagram(buf []byte) error {
	t.datagrams.Add(1)
	t.feedMu.Lock()
	_, err := t.feed.OnDatagram(buf)
	t.degraded.Store(t.feed.Recovering() || !t.client.Ready())
	t.feedMu.Unlock()
	if err != nil {
		t.badDatagrams.Add(1)
	}
	return err
}

// ServeFeed reads datagrams from conn into the trader until ctx ends.
func (t *MultiTrader) ServeFeed(ctx context.Context, conn net.PacketConn) error {
	return serveFeed(ctx, conn, t.OnDatagram)
}

// routeOrders is the lane-side order gate: suppressed while degraded,
// otherwise recorded for ack routing and sent. It runs on lane goroutines
// and must never take feedMu (see the field comment).
func (t *MultiTrader) routeOrders(sec int32, reqs []exchange.Request) {
	if t.degraded.Load() || !t.client.Ready() {
		t.suppressed.Add(int64(len(reqs)))
		return
	}
	t.ordersRouted.Add(int64(len(reqs)))
	t.trackOrders(sec, reqs)
	for _, req := range reqs {
		if err := t.client.Send(req); err != nil {
			return // session dropped; cancel-on-disconnect applies
		}
	}
}

// trackOrders records outbound requests in the owner map for ack routing.
func (t *MultiTrader) trackOrders(sec int32, reqs []exchange.Request) {
	t.ownerMu.Lock()
	defer t.ownerMu.Unlock()
	for _, req := range reqs {
		switch req.Kind {
		case exchange.ReqNew:
			t.owner[req.ClOrdID] = liveOrder{sec: sec, remaining: req.Qty}
		case exchange.ReqReplace:
			t.owner[req.NewClOrdID] = liveOrder{sec: sec, remaining: req.Qty,
				replaces: req.ClOrdID}
		default: // cancels target an id the map already tracks
			if _, ok := t.owner[req.ClOrdID]; !ok {
				t.owner[req.ClOrdID] = liveOrder{sec: sec}
			}
		}
	}
}

// resolveAck maps an ack to its owning instrument and retires finished ids:
// terminal acks (cancel, reject, full fill) drop the entry, partial fills
// run down the remaining qty and drop it at zero, and a replace ack retires
// the id it replaced. Unbounded growth here would leak a long-lived session.
func (t *MultiTrader) resolveAck(ack orderentry.ExecAck) (sec int32, ok bool) {
	t.ownerMu.Lock()
	defer t.ownerMu.Unlock()
	ord, ok := t.owner[ack.ClOrdID]
	if !ok {
		return 0, false
	}
	switch ack.Exec {
	case exchange.ExecCanceled, exchange.ExecRejected, exchange.ExecFilled:
		delete(t.owner, ack.ClOrdID)
	case exchange.ExecPartialFill:
		ord.remaining -= ack.Qty
		if ord.remaining <= 0 {
			delete(t.owner, ack.ClOrdID)
		} else {
			t.owner[ack.ClOrdID] = ord
		}
	case exchange.ExecReplaced:
		if ord.replaces != 0 {
			delete(t.owner, ord.replaces)
		}
	}
	return ord.sec, true
}

// onAck routes an execution ack to the owning instrument's pipeline. It runs
// on the client's session goroutine and must never take feedMu.
func (t *MultiTrader) onAck(ack orderentry.ExecAck) {
	sec, ok := t.resolveAck(ack)
	if !ok {
		return
	}
	t.srv.OnExecReport(exchange.ExecReport{
		Exec: ack.Exec, SecurityID: sec,
		ClOrdID: ack.ClOrdID, Price: ack.Price, Qty: ack.Qty,
	})
}
