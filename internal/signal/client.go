package signal

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lighttrader/internal/session"
)

// ClientConfig parameterises a wire subscriber Client.
type ClientConfig struct {
	// Addr is the gateway's TCP address. Ignored when Dial is set.
	Addr string
	// Dial overrides the default TCP dial — the hook chaos tests use to
	// interpose faultnet.Conn wrappers.
	Dial func(ctx context.Context) (net.Conn, error)
	// Symbols to subscribe on every (re)connect.
	Symbols []string
	// OnSignal receives every decoded signal (called from the session
	// goroutine; keep it fast or the conflation drops land on you).
	OnSignal func(TradeSignal)
	// heartbeat is the keep-alive cadence (0 selects 500ms; in-package tests
	// shorten it). Liveness expires after three silent intervals.
	heartbeat time.Duration
	// Logf, when non-nil, receives connection lifecycle events.
	Logf func(format string, args ...any)
	// backoffMin/backoffMax bound the reconnect ladder (session.Backoff,
	// seed 0); zero values select 50ms/2s. In-package tests shorten it.
	backoffMin, backoffMax time.Duration
}

// ClientStats counts client lifecycle events since construction.
type ClientStats struct {
	Dials             int    // connections that reached the subscribe step
	Sessions          int    // sessions that received at least one frame
	SignalsReceived   uint64 // decoded signal frames
	GapDrops          uint64 // updates conflated away upstream (Seq gaps)
	HeartbeatsSent    int
	KeepAliveExpiries int
}

// Client subscribes to a signal gateway over TCP, decoding the conflated
// stream and reconnecting with capped exponential backoff. Seq gaps in the
// received stream are counted as GapDrops — the client-side view of the
// gateway's dropped-update accounting.
type Client struct {
	cfg     ClientConfig
	dial    func(ctx context.Context) (net.Conn, error)
	backoff *session.Backoff

	mu    sync.Mutex
	seen  map[string]uint64
	stats ClientStats
}

// NewClient builds a client; call Run to connect and consume.
func NewClient(cfg ClientConfig) *Client {
	if cfg.heartbeat <= 0 {
		cfg.heartbeat = 500 * time.Millisecond
	}
	c := &Client{
		cfg:     cfg,
		backoff: session.NewBackoff(cfg.backoffMin, cfg.backoffMax, 0),
		seen:    make(map[string]uint64),
	}
	c.dial = cfg.Dial
	if c.dial == nil {
		c.dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", cfg.Addr)
		}
	}
	return c
}

// Stats returns lifecycle counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Run dials, subscribes, and consumes the signal stream until ctx ends,
// reconnecting with capped exponential backoff plus jitter after every
// failure.
func (c *Client) Run(ctx context.Context) error {
	return session.Run(ctx, "signal: client", c.dial, c.backoff, c.serve, c.logf)
}

// serve counts the dial, subscribes, consumes one connection and closes
// it. The session is healthy once any frame arrives (the signal to reset the
// backoff ladder).
func (c *Client) serve(ctx context.Context, conn net.Conn) (healthy bool, err error) {
	defer conn.Close()
	c.mu.Lock()
	c.stats.Dials++
	c.mu.Unlock()
	var sub []byte
	for _, sym := range c.cfg.Symbols {
		if sub, err = AppendSubscribeFrame(sub, sym); err != nil {
			return false, err
		}
	}
	if err := writeDeadline(conn, sub, c.cfg.heartbeat); err != nil {
		return false, fmt.Errorf("signal: subscribe write: %w", err)
	}

	var rb session.Reader
	live := session.NewLiveness(c.cfg.heartbeat, time.Now())
	nextHB := time.Now().Add(c.cfg.heartbeat)
	for {
		if ctx.Err() != nil {
			return healthy, ctx.Err()
		}
		_ = conn.SetReadDeadline(time.Now().Add(sessionReadTick))
		buf, n, rerr := rb.Read(conn)
		if n > 0 {
			live.Touch(time.Now())
		}
		for {
			frame, consumed, derr := DecodeFrame(buf)
			if errors.Is(derr, ErrShortFrame) {
				break
			}
			if derr != nil {
				return healthy, fmt.Errorf("signal: corrupt stream: %w", derr)
			}
			buf = buf[consumed:]
			if !healthy {
				healthy = true
				c.mu.Lock()
				c.stats.Sessions++
				c.mu.Unlock()
			}
			if frame.Type == FrameSignal {
				c.onSignal(frame.Signal)
			}
		}
		rb.Keep(buf)
		if rerr != nil {
			var ne net.Error
			if !errors.As(rerr, &ne) || !ne.Timeout() {
				return healthy, fmt.Errorf("signal: session read: %w", rerr)
			}
		}
		now := time.Now()
		if now.After(nextHB) {
			nextHB = now.Add(c.cfg.heartbeat)
			wire := AppendHeartbeatFrame(nil)
			if err := writeDeadline(conn, wire, c.cfg.heartbeat); err != nil {
				return healthy, fmt.Errorf("signal: heartbeat write: %w", err)
			}
			c.mu.Lock()
			c.stats.HeartbeatsSent++
			c.mu.Unlock()
		}
		if live.Expired(now) {
			c.mu.Lock()
			c.stats.KeepAliveExpiries++
			c.mu.Unlock()
			return healthy, errors.New("signal: gateway keep-alive expired")
		}
	}
}

// onSignal accounts the frame (Seq-gap drop tracking survives reconnects)
// and forwards it.
func (c *Client) onSignal(sig TradeSignal) {
	c.mu.Lock()
	c.stats.SignalsReceived++
	if last, ok := c.seen[sig.Symbol]; ok && sig.Seq > last+1 {
		c.stats.GapDrops += sig.Seq - last - 1
	}
	if sig.Seq > c.seen[sig.Symbol] {
		c.seen[sig.Symbol] = sig.Seq
	}
	cb := c.cfg.OnSignal
	c.mu.Unlock()
	if cb != nil {
		cb(sig)
	}
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
