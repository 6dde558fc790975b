package signal

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"lighttrader/internal/session"
)

// sessionReadTick bounds how long a wire session blocks in a read before
// checking heartbeat and liveness deadlines (mirrors the order-entry
// client's session loop cadence).
const sessionReadTick = 50 * time.Millisecond

// Serve accepts signal subscribers on ln until ctx ends or the gateway is
// closed. Each connection sends subscribe frames for the symbols it wants
// and then receives a conflated signal stream: a per-connection
// latest-value outbox absorbs fan-out at memory cost O(subscribed
// symbols), a dedicated writer goroutine performs the socket writes under
// 250ms write deadlines, and heartbeats flow both ways with the
// three-interval liveness rule. A stalled or silent connection is dropped;
// it can never wedge a shard or a lane.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	if g.closed.Load() {
		return ErrClosed
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-g.stop:
		case <-done:
		}
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if g.closed.Load() {
				return ErrClosed
			}
			return fmt.Errorf("signal: accept: %w", err)
		}
		g.connsTotal.Add(1)
		g.connsOpen.Add(1)
		go g.handleConn(ctx, conn)
	}
}

// handleConn serves one subscriber connection: a read loop (this
// goroutine) that handles subscribe frames and liveness, and a writer
// goroutine that drains the connection's conflated outbox.
func (g *Gateway) handleConn(ctx context.Context, conn net.Conn) {
	defer g.connsOpen.Add(-1)
	defer conn.Close()
	if g.cfg.connWriteBuffer > 0 {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(g.cfg.connWriteBuffer)
		}
	}

	sink := newConnSink()
	var subs []*subscriber
	defer func() {
		sink.close()
		for _, sub := range subs {
			sub.unsubscribe()
		}
	}()

	// Writer: drain the outbox into deadline-guarded socket writes. Its
	// exit (write timeout, peer gone) tears the whole connection down via
	// writerDone.
	writerDone := make(chan error, 1)
	stopWriter := make(chan struct{})
	go func() { writerDone <- g.connWriter(conn, sink, stopWriter) }()
	defer close(stopWriter)

	var rb session.Reader
	live := session.NewLiveness(g.cfg.heartbeat, time.Now())
	for {
		select {
		case <-ctx.Done():
			return
		case <-g.stop:
			return
		case <-writerDone:
			g.connsDropped.Add(1)
			return
		default:
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
				g.connsDropped.Add(1)
				return
			}
			buf = buf[consumed:]
			switch frame.Type {
			case FrameSubscribe:
				sub, serr := g.subscribeConn(frame.Symbol, sink)
				if serr != nil {
					continue // an unknown symbol subscribes to nothing
				}
				subs = append(subs, sub)
			case FrameHeartbeat, FrameSignal:
				// Heartbeats only refresh liveness; inbound signal frames
				// are tolerated no-ops (the protocol is symmetric).
			}
		}
		rb.Keep(buf)
		if rerr != nil {
			var ne net.Error
			if !errors.As(rerr, &ne) || !ne.Timeout() {
				return
			}
		}
		if live.Expired(time.Now()) {
			g.connsDropped.Add(1)
			return
		}
	}
}

// subscribeConn attaches one wire subscriber backed by the connection's
// conflated outbox.
func (g *Gateway) subscribeConn(symbol string, sink *connSink) (*subscriber, error) {
	if g.closed.Load() {
		return nil, ErrClosed
	}
	s := g.slotFor(symbol)
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSymbol, symbol)
	}
	sub := &subscriber{
		slot:  s,
		cs:    sink,
		csIdx: sink.addSlot(),
		seen:  initialSeen(s),
	}
	g.attach(sub)
	return sub, nil
}

// connWriter drains the outbox: every wake it writes all pending signals,
// heartbeats on the configured cadence, and enforces the per-write
// deadline. Returning an error drops the connection.
func (g *Gateway) connWriter(conn net.Conn, sink *connSink, stop chan struct{}) error {
	hb := time.NewTicker(g.cfg.heartbeat)
	defer hb.Stop()
	wire := make([]byte, 0, 256)
	next := 0
	for {
		select {
		case <-stop:
			return nil
		case <-g.stop:
			return nil
		case <-hb.C:
			wire = AppendHeartbeatFrame(wire[:0])
			if err := writeDeadline(conn, wire, g.cfg.writeTimeout); err != nil {
				return fmt.Errorf("heartbeat write: %w", err)
			}
		case <-sink.notify:
			for {
				sig, ok := sink.take(&next)
				if !ok {
					break
				}
				wire = AppendSignalFrame(wire[:0], &sig)
				if err := writeDeadline(conn, wire, g.cfg.writeTimeout); err != nil {
					return fmt.Errorf("signal write: %w", err)
				}
			}
		}
	}
}

// writeDeadline performs one deadline-guarded full write.
func writeDeadline(conn net.Conn, buf []byte, timeout time.Duration) error {
	_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := conn.Write(buf)
	return err
}
