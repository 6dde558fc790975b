// Package venue wraps a scenario's matching engine in real sockets: market
// data out over UDP (the direct data feed of Fig. 2), iLink-style binary
// order entry in over TCP. It is the substrate for cmd/exchange and the
// live-wire example.
package venue

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/scenario"
	"lighttrader/internal/session"
)

// ServerConfig configures the wire-level exchange simulator: a scenario's
// order flow played on the venue's engine in real time, its market data out
// over UDP (the direct data feed of Fig. 2) and order entry in over TCP
// with iLink-style binary frames.
type ServerConfig struct {
	// OrderAddr is the TCP listen address for order entry ("127.0.0.1:0"
	// picks a free port).
	OrderAddr string
	// FeedAddr is the UDP destination market data is published to.
	FeedAddr string
	// FeedAddrB, when non-empty, is a second UDP destination every packet
	// is also published to — the redundant B channel real venues run, so
	// mdclient.Arbiter's A/B arbitration is exercised over real sockets.
	FeedAddrB string
	// Scenario lists the instruments, seeds their books and scripts the
	// order flow; a script without phases is a static book. Undisturbed —
	// no client orders, no periodic snapshot inside the script — the venue
	// publishes exactly Scenario.Packets().
	Scenario *scenario.Source
	// SnapshotInterval is the cadence of the recovery snapshot channel;
	// zero selects one second.
	SnapshotInterval time.Duration
}

// Server is an exchange reachable over real sockets. Fills are reported
// only to the taker's session: a resting client order that scenario flow
// (or another session) trades against is never acked.
type Server struct {
	cfg      ServerConfig
	ln       net.Listener
	feedConn net.PacketConn
	feedDst  net.Addr
	feedDstB net.Addr

	// reqCh serialises all engine access onto the run goroutine; snapCh
	// rides the same goroutine for book reads.
	reqCh  chan serverReq
	snapCh chan snapReq

	mu     sync.Mutex
	closed bool
}

type serverReq struct {
	req   exchange.Request
	reply chan []exchange.ExecReport
}

type snapReq struct {
	sec   int32
	reply chan lob.Snapshot
}

// NewServer binds the listener and feed socket; call Run to serve.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Scenario == nil {
		return nil, errors.New("exchange: server needs a scenario")
	}
	ln, err := net.Listen("tcp", cfg.OrderAddr)
	if err != nil {
		return nil, fmt.Errorf("exchange: order listener: %w", err)
	}
	feedConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("exchange: feed socket: %w", err)
	}
	feedDst, err := net.ResolveUDPAddr("udp", cfg.FeedAddr)
	if err != nil {
		ln.Close()
		feedConn.Close()
		return nil, fmt.Errorf("exchange: feed destination: %w", err)
	}
	var feedDstB net.Addr
	if cfg.FeedAddrB != "" {
		b, err := net.ResolveUDPAddr("udp", cfg.FeedAddrB)
		if err != nil {
			ln.Close()
			feedConn.Close()
			return nil, fmt.Errorf("exchange: feed B destination: %w", err)
		}
		feedDstB = b
	}
	return &Server{
		cfg:      cfg,
		ln:       ln,
		feedConn: feedConn,
		feedDst:  feedDst,
		feedDstB: feedDstB,
		reqCh:    make(chan serverReq, 64),
		snapCh:   make(chan snapReq),
	}, nil
}

// OrderAddr returns the bound TCP order-entry address.
func (s *Server) OrderAddr() net.Addr { return s.ln.Addr() }

// Snapshot returns the venue's authoritative top-of-book for sec,
// serialised through the engine goroutine. ok is false when the server is
// not running.
func (s *Server) Snapshot(sec int32) (lob.Snapshot, bool) {
	reply := make(chan lob.Snapshot, 1)
	select {
	case s.snapCh <- snapReq{sec: sec, reply: reply}:
		return <-reply, true
	case <-time.After(2 * time.Second):
		return lob.Snapshot{}, false
	}
}

// Run serves until ctx is cancelled. It owns the scenario's engine: each
// scripted event is applied once its scripted time has passed since Run
// started, and order-entry requests and periodic snapshots interleave with
// them here, mirroring the per-channel ordering of a real venue. Requests
// carry the latest scripted time reached. When the script ends its flow
// stops; matching and snapshots go on.
func (s *Server) Run(ctx context.Context) error {
	src := s.cfg.Scenario
	w := scenario.NewWorld(src.Script(), src.Seed(), s.publish)

	go s.acceptLoop(ctx)

	start := time.Now()
	flow := time.NewTimer(0)
	defer flow.Stop()

	snapEvery := s.cfg.SnapshotInterval
	if snapEvery <= 0 {
		snapEvery = time.Second
	}
	snapshotTick := time.NewTicker(snapEvery)
	defer snapshotTick.Stop()

	for {
		select {
		case <-ctx.Done():
			s.close()
			return ctx.Err()
		case r := <-s.reqCh:
			r.reply <- w.Submit(r.req)
		case r := <-s.snapCh:
			r.reply <- w.Snapshot(r.sec)
		case <-flow.C:
			for t, ok := w.Next(); ok; t, ok = w.Next() {
				if wait := time.Until(start.Add(time.Duration(t))); wait > 0 {
					flow.Reset(wait)
					break
				}
				w.Step()
			}
		case <-snapshotTick.C:
			w.PublishSnapshots()
		}
	}
}

// publish writes one packet to the feed channel(s).
func (s *Server) publish(buf []byte) {
	_, _ = s.feedConn.WriteTo(buf, s.feedDst)
	if s.feedDstB != nil {
		_, _ = s.feedConn.WriteTo(buf, s.feedDstB)
	}
}

func (s *Server) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.ln.Close()
		s.feedConn.Close()
	}
}

// acceptLoop handles order-entry sessions.
func (s *Server) acceptLoop(ctx context.Context) {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go s.serveConn(ctx, conn)
	}
}

// connState is the per-connection serve state shared between the read loop
// and the frame processor.
type connState struct {
	session *orderentry.VenueSession
	legacy  bool
	reply   chan []exchange.ExecReport
	lastHB  time.Time
}

// serveTick bounds how long serveConn blocks in a read before checking
// keep-alive expiry and heartbeat deadlines.
const serveTick = 100 * time.Millisecond

// serveConn reads iLink frames, submits them to the engine goroutine, and
// writes ExecAck frames back. Sessions may open with the FIXP-style
// Negotiate/Establish handshake (orderentry.VenueSession); clients that
// send a business frame first run in legacy implicit-session mode. The
// read loop is deadline-driven so the venue can terminate established
// sessions whose keep-alive lapsed and emit its own Sequence heartbeats.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	var rb session.Reader
	st := &connState{
		session: orderentry.NewVenueSession(),
		reply:   make(chan []exchange.ExecReport, 1),
		lastHB:  time.Now(),
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(serveTick))
		buf, _, err := rb.Read(conn)
		// Drain every complete frame already buffered before acting on the
		// read error: a peer may write a frame and close in one burst, and
		// those bytes can arrive together with EOF.
		rest, ok := s.processFrames(ctx, conn, buf, st)
		rb.Keep(rest)
		if !ok {
			return
		}
		if err == nil {
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			now := time.Now()
			if st.session.Expired(now.UnixNano()) {
				_, _ = conn.Write(orderentry.AppendTerminate(nil, st.session.UUID(),
					orderentry.TerminateKeepAliveExpired))
				return
			}
			s.maybeHeartbeat(conn, st, now)
			continue
		}
		return // EOF or hard error; buffered frames already drained
	}
}

// maybeHeartbeat writes a venue-side Sequence frame once per keep-alive
// interval so established clients can monitor venue liveness.
func (s *Server) maybeHeartbeat(conn net.Conn, st *connState, now time.Time) {
	if st.session.State() != orderentry.StateEstablished {
		return
	}
	every := time.Duration(st.session.KeepAlive()) * time.Millisecond
	if every <= 0 || now.Sub(st.lastHB) < every {
		return
	}
	st.lastHB = now
	_, _ = conn.Write(orderentry.AppendSequence(nil, st.session.UUID(), st.session.NextSeqNo()))
}

// processFrames consumes every complete frame in buf, returning the
// unconsumed remainder and whether the connection should stay open. Session
// frames advance the FIXP state machine; business frames are submitted to
// the engine goroutine and acked. Malformed frames terminate the session —
// never the server: the decoder returns errors (not panics) for corrupt
// SOFH lengths, and consumed is always positive on success, so this loop
// cannot spin.
func (s *Server) processFrames(ctx context.Context, conn net.Conn, buf []byte, st *connState) ([]byte, bool) {
	var req exchange.Request // business frames decode into these two
	var ack orderentry.ExecAck
	for {
		sf, consumed, serr := orderentry.DecodeSessionFrame(buf)
		if serr == nil {
			buf = buf[consumed:]
			out, stateErr := st.session.OnFrame(sf, time.Now().UnixNano())
			if out != nil {
				st.lastHB = time.Now()
				if _, werr := conn.Write(out); werr != nil {
					return buf, false
				}
			}
			if stateErr != nil || st.session.State() == orderentry.StateTerminated {
				return buf, false
			}
			continue
		}
		if errors.Is(serr, orderentry.ErrILinkShort) {
			return buf, true // incomplete frame: wait for more bytes
		}
		if !errors.Is(serr, orderentry.ErrNotSessionFrame) {
			// Corrupt framing (bad SOFH length, unknown encoding): tell the
			// peer why and drop only this session.
			s.terminateProtocolError(conn, st)
			return buf, false
		}
		frame, consumed, err := orderentry.DecodeFrameInto(buf, &req, &ack)
		if errors.Is(err, orderentry.ErrILinkShort) {
			return buf, true
		}
		if err != nil {
			s.terminateProtocolError(conn, st)
			return buf, false
		}
		buf = buf[consumed:]
		if frame.Request == nil {
			continue
		}
		switch st.session.State() {
		case orderentry.StateEstablished:
			_ = st.session.OnBusiness(time.Now().UnixNano())
		case orderentry.StateIdle:
			st.legacy = true // implicit session for protocol-light clients
		default:
			if !st.legacy {
				_, _ = conn.Write(orderentry.AppendTerminate(nil, st.session.UUID(),
					orderentry.TerminateProtocolError))
				return buf, false
			}
		}
		select {
		case s.reqCh <- serverReq{req: *frame.Request, reply: st.reply}:
		case <-ctx.Done():
			return buf, false
		}
		var out []byte
		for _, rep := range <-st.reply {
			out = orderentry.AppendExecAck(out, orderentry.ExecAck{
				ClOrdID:    rep.ClOrdID,
				Price:      rep.Price,
				Qty:        rep.Qty,
				SecurityID: rep.SecurityID,
				Exec:       rep.Exec,
			})
		}
		if len(out) > 0 {
			st.lastHB = time.Now()
			if _, err := conn.Write(out); err != nil {
				return buf, false
			}
		}
	}
}

// terminateProtocolError notifies negotiated/established peers before the
// connection drops; idle and legacy streams are cut silently.
func (s *Server) terminateProtocolError(conn net.Conn, st *connState) {
	if st.session.State() == orderentry.StateNegotiated ||
		st.session.State() == orderentry.StateEstablished {
		_, _ = conn.Write(orderentry.AppendTerminate(nil, st.session.UUID(),
			orderentry.TerminateProtocolError))
	}
}
