// Package trader implements the live client side of the wire path: an
// order-entry session owner that survives the failures real exchange links
// deliver. The Client drives the FIXP-style Negotiate/Establish handshake,
// exchanges keep-alive heartbeats, monitors venue liveness, reconnects with
// capped exponential backoff plus jitter, and applies a client-enforced
// cancel-on-disconnect policy when a session is re-established. MultiTrader
// is the one live loop: it pairs a Client with the arbitrated A/B
// market-data path (mdclient.Arbiter) and the serving runtime at any lane
// count (Lanes: 0 runs it inline on the feed goroutine), and gates new order
// flow while the feed is recovering or the session is down — the
// graceful-degradation half of the paper's standalone appliance.
package trader

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lighttrader/internal/exchange"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/session"
)

// Client errors.
var (
	// ErrNotReady is returned by Send while no established session exists
	// (connecting, re-establishing, or torn down): nothing was written.
	ErrNotReady = errors.New("trader: session not established")
	// ErrKeepAliveExpired ends a session whose venue went silent for three
	// keep-alive intervals; Run reconnects after it.
	ErrKeepAliveExpired = errors.New("trader: venue keep-alive expired")
	// errTerminated ends a session the venue terminated explicitly.
	errTerminated = errors.New("trader: session terminated by venue")
)

// Config parameterises a Client.
type Config struct {
	// OrderAddr is the venue's TCP order-entry address. Ignored when Dial
	// is set.
	OrderAddr string
	// Dial overrides the default TCP dial — the hook chaos tests use to
	// interpose faultnet.Conn wrappers.
	Dial func(ctx context.Context) (net.Conn, error)
	// UUID identifies the FIXP session across reconnects.
	UUID uint64
	// KeepAliveMillis is the negotiated heartbeat interval; 0 selects 500.
	KeepAliveMillis uint32
	// BackoffMin is the first delay of the capped exponential reconnect
	// backoff, which doubles up to 2s; zero selects 50ms.
	BackoffMin time.Duration
	// BackoffSeed makes the jitter deterministic.
	BackoffSeed int64
	// CancelOnDisconnect, when set, sends a cancel for every order believed
	// resting as soon as a session is re-established, flattening unknown
	// exposure before new flow resumes.
	CancelOnDisconnect bool
	// OnAck receives every decoded execution ack for an order this client
	// sent and has not yet seen finish (called without internal locks held).
	OnAck func(orderentry.ExecAck)
	// Logf, when non-nil, receives connection lifecycle events.
	Logf func(format string, args ...any)
}

// Stats counts client lifecycle events since construction.
type Stats struct {
	Dials              int // connection attempts that reached the handshake
	Sessions           int // sessions that reached Established
	Reconnects         int // established sessions after the first
	HeartbeatsSent     int
	KeepAliveExpiries  int
	Terminates         int // venue-initiated terminates
	OrdersSent         int
	AcksReceived       int
	CancelsOnReconnect int
}

// readTick bounds how long the session loop blocks in a read before
// checking heartbeat and keep-alive deadlines. It is re-armed only once it has
// expired: a session busy with acks checks them after every read anyway.
const readTick = 50 * time.Millisecond

// Client owns one order-entry session end to end.
type Client struct {
	cfg     Config
	dial    func(ctx context.Context) (net.Conn, error)
	backoff *session.Backoff

	mu      sync.Mutex
	conn    net.Conn
	sess    *orderentry.ClientSession
	ready   bool
	readyCh chan struct{}
	// orders is the one live-order ledger: every id sent and not yet seen
	// finish. It says which acks are ours, which instrument a reconnect
	// sweep's cancel names, and it holds only the live population — an id
	// retires on its terminal ack, when fills consume its quantity, or when
	// the venue confirms the order that replaced it.
	orders  map[uint64]liveOrder
	sendBuf []byte // order encode scratch, reused under mu (conn.Write does not retain it)
	stats   Stats
}

// liveOrder is the ledger record of one in-flight order.
type liveOrder struct {
	sec       int32
	remaining int64  // outstanding qty; the id retires when fills consume it
	replaces  uint64 // prior id this order replaced, retired on ExecReplaced
	rests     bool   // may rest at the venue: cancel-on-disconnect sweeps it
}

// NewClient builds a client; call Run to connect and serve.
func NewClient(cfg Config) *Client {
	if cfg.KeepAliveMillis == 0 {
		cfg.KeepAliveMillis = 500
	}
	c := &Client{
		cfg:     cfg,
		backoff: session.NewBackoff(cfg.BackoffMin, 0, cfg.BackoffSeed),
		readyCh: make(chan struct{}),
		orders:  make(map[uint64]liveOrder),
	}
	c.dial = cfg.Dial
	if c.dial == nil {
		c.dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", cfg.OrderAddr)
		}
	}
	return c
}

// Stats returns lifecycle counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// WaitReady blocks until a session is established or ctx ends.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		c.mu.Lock()
		if c.ready {
			c.mu.Unlock()
			return nil
		}
		ch := c.readyCh
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Send writes the orders of one dispatch to the established session as one
// run of frames: one readiness check, one ledger pass, one encode, one
// conn.Write under one lock. n is how many of reqs entered the ledger — all
// or none, because the write is all there is to fail. ErrNotReady (or a
// request that does not encode) comes before anything is written or tracked:
// n is 0 and the caller counts reqs as suppressed. A failed conn.Write may
// have delivered any of its frames, so every order stays tracked: n is
// len(reqs), they count as routed, and the reconnect sweep cancels the ones
// that rest (a cancel for one that never landed is rejected harmlessly).
func (c *Client) Send(reqs ...exchange.Request) (n int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sendLocked(reqs)
}

func (c *Client) sendLocked(reqs []exchange.Request) (int, error) {
	if !c.ready || c.conn == nil {
		return 0, ErrNotReady
	}
	c.sendBuf = c.sendBuf[:0]
	for i := range reqs {
		before := len(c.sendBuf)
		if c.sendBuf = orderentry.AppendRequest(c.sendBuf, reqs[i]); len(c.sendBuf) == before {
			return 0, fmt.Errorf("trader: unencodable request kind %d", reqs[i].Kind)
		}
	}
	// Track pessimistically, BEFORE the write: if the connection dies
	// mid-send a request may or may not have reached the venue, and the safe
	// assumption is always the one that leaves the order tracked. A cancel or
	// the replaced-away side of a replace is NOT untracked here — only the
	// venue's ack proves the resting order is gone (settle prunes on it).
	for i := range reqs {
		switch req := &reqs[i]; req.Kind {
		case exchange.ReqNew:
			c.orders[req.ClOrdID] = liveOrder{sec: req.SecurityID, remaining: req.Qty,
				rests: req.Type == exchange.Limit}
		case exchange.ReqReplace:
			c.orders[req.NewClOrdID] = liveOrder{sec: req.SecurityID, remaining: req.Qty,
				replaces: req.ClOrdID, rests: true}
		}
	}
	if _, err := c.conn.Write(c.sendBuf); err != nil {
		return len(reqs), fmt.Errorf("trader: order write: %w", err)
	}
	c.sess.NoteSent(time.Now().UnixNano())
	c.stats.OrdersSent += len(reqs)
	return len(reqs), nil
}

// Run dials, establishes, and serves the session until ctx ends,
// reconnecting with capped exponential backoff plus jitter after every
// failure. It returns ctx.Err() once the context is cancelled.
func (c *Client) Run(ctx context.Context) error {
	return session.Run(ctx, "trader:", c.dial, c.backoff, c.serve, c.logf)
}

// serve counts the dial, serves one connection and closes it. A session
// that made it to Established is healthy: it earns a fresh backoff ladder.
// The close comes before teardown takes the lock, so it also ends a Send
// blocked in its write.
func (c *Client) serve(ctx context.Context, conn net.Conn) (bool, error) {
	c.mu.Lock()
	c.stats.Dials++
	c.mu.Unlock()
	err := c.runSession(ctx, conn)
	conn.Close()
	return c.teardown(), err
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// teardown clears the session after a disconnect, reporting whether it had
// been established.
func (c *Client) teardown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	wasReady := c.ready
	if c.ready {
		c.ready = false
		c.readyCh = make(chan struct{})
	}
	c.conn = nil
	c.sess = nil
	return wasReady
}

// runSession performs the handshake and serves one connection.
func (c *Client) runSession(ctx context.Context, conn net.Conn) error {
	sess := orderentry.NewClientSession(c.cfg.UUID)
	neg, err := sess.Negotiate(time.Now().UnixNano())
	if err != nil {
		return err
	}
	if _, err := conn.Write(neg); err != nil {
		return fmt.Errorf("trader: negotiate write: %w", err)
	}

	keepAlive := time.Duration(c.cfg.KeepAliveMillis) * time.Millisecond
	var rb session.Reader
	live := session.NewLiveness(keepAlive, time.Now())
	handshakeDeadline := time.Now().Add(3 * keepAlive)

	_ = conn.SetReadDeadline(time.Now().Add(readTick))
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		buf, n, rerr := rb.Read(conn)
		if n > 0 {
			live.Touch(time.Now())
		}
		rest, perr := c.processFrames(buf, sess, conn)
		rb.Keep(rest)
		if perr != nil {
			return perr
		}
		if rerr != nil {
			var ne net.Error
			if !errors.As(rerr, &ne) || !ne.Timeout() {
				// Drained whatever arrived with the error; surface it.
				return fmt.Errorf("trader: session read: %w", rerr)
			}
			_ = conn.SetReadDeadline(time.Now().Add(readTick))
		}
		now := time.Now()
		if sess.State() != orderentry.StateEstablished {
			if now.After(handshakeDeadline) {
				return fmt.Errorf("trader: handshake timeout in %v", sess.State())
			}
			continue
		}
		// Established: heartbeat on cadence, and monitor venue liveness.
		c.mu.Lock()
		hb := sess.Heartbeat(now.UnixNano())
		if hb != nil {
			c.stats.HeartbeatsSent++
		}
		c.mu.Unlock()
		if hb != nil {
			if _, err := conn.Write(hb); err != nil {
				return fmt.Errorf("trader: heartbeat write: %w", err)
			}
		}
		if live.Expired(now) {
			c.mu.Lock()
			c.stats.KeepAliveExpiries++
			c.mu.Unlock()
			return ErrKeepAliveExpired
		}
	}
}

// processFrames consumes complete frames: session frames advance the
// handshake, business frames surface acks. Returns the unconsumed tail.
func (c *Client) processFrames(buf []byte, sess *orderentry.ClientSession, conn net.Conn) ([]byte, error) {
	var req exchange.Request // business frames decode into these two
	var ack orderentry.ExecAck
	for {
		sf, consumed, serr := orderentry.DecodeSessionFrame(buf)
		if serr == nil {
			buf = buf[consumed:]
			wasEstablished := sess.State() == orderentry.StateEstablished
			if err := sess.OnFrame(sf, time.Now().UnixNano()); err != nil {
				return buf, fmt.Errorf("trader: session frame: %w", err)
			}
			switch sess.State() {
			case orderentry.StateNegotiated:
				est, err := sess.Establish(time.Now().UnixNano(), c.cfg.KeepAliveMillis)
				if err != nil {
					return buf, err
				}
				if _, err := conn.Write(est); err != nil {
					return buf, fmt.Errorf("trader: establish write: %w", err)
				}
			case orderentry.StateEstablished:
				if !wasEstablished {
					c.onEstablished(conn, sess)
				}
			case orderentry.StateTerminated:
				c.mu.Lock()
				c.stats.Terminates++
				c.mu.Unlock()
				return buf, errTerminated
			}
			continue
		}
		if errors.Is(serr, orderentry.ErrILinkShort) {
			return buf, nil
		}
		frame, consumed, err := orderentry.DecodeFrameInto(buf, &req, &ack)
		if errors.Is(err, orderentry.ErrILinkShort) {
			return buf, nil
		}
		if err != nil {
			return buf, fmt.Errorf("trader: corrupt session stream: %w", err)
		}
		buf = buf[consumed:]
		if frame.Ack != nil {
			c.handleAck(*frame.Ack)
		}
	}
}

// onEstablished publishes the ready session and applies the
// cancel-on-disconnect policy on re-establishment.
func (c *Client) onEstablished(conn net.Conn, sess *orderentry.ClientSession) {
	c.mu.Lock()
	c.conn = conn
	c.sess = sess
	c.ready = true
	c.stats.Sessions++
	reconnect := c.stats.Sessions > 1
	if reconnect {
		c.stats.Reconnects++
	}
	close(c.readyCh)
	var cancels []exchange.Request
	if reconnect && c.cfg.CancelOnDisconnect {
		for id, ord := range c.orders {
			if ord.rests {
				cancels = append(cancels, exchange.Request{
					Kind: exchange.ReqCancel, SecurityID: ord.sec, ClOrdID: id,
				})
			}
		}
	}
	if len(cancels) > 0 {
		if _, err := c.sendLocked(cancels); err == nil {
			c.stats.CancelsOnReconnect += len(cancels)
		}
	}
	c.mu.Unlock()
	c.logf("trader: session established (uuid %#x, reconnect=%v, cancels=%d)",
		c.cfg.UUID, reconnect, len(cancels))
}

// handleAck settles an ack against the ledger and forwards it when the
// ledger knew the id: an ack for anything else (a stranger's order, an id
// already finished) has no owner to route to.
func (c *Client) handleAck(ack orderentry.ExecAck) {
	c.mu.Lock()
	c.stats.AcksReceived++
	known := c.settle(ack)
	c.mu.Unlock()
	if known && c.cfg.OnAck != nil {
		c.cfg.OnAck(ack)
	}
}

// settle applies one ack to the ledger, reporting whether it knew the id.
// Terminal acks (cancel, reject, the fill that completes an order) retire
// the id, partial fills run down its remaining quantity and retire it at
// zero, and a replace ack retires the id it replaced — the venue never acks
// that one again. Callers hold mu.
func (c *Client) settle(ack orderentry.ExecAck) bool {
	ord, ok := c.orders[ack.ClOrdID]
	if !ok {
		return false
	}
	switch ack.Exec {
	case exchange.ExecCanceled, exchange.ExecRejected, exchange.ExecFilled:
		delete(c.orders, ack.ClOrdID)
	case exchange.ExecPartialFill:
		if ord.remaining -= ack.Qty; ord.remaining <= 0 {
			delete(c.orders, ack.ClOrdID)
		} else {
			c.orders[ack.ClOrdID] = ord
		}
	case exchange.ExecReplaced:
		if ord.replaces != 0 {
			delete(c.orders, ord.replaces)
		}
	}
	return true
}
