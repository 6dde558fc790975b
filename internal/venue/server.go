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

	// mu guards the world and closed. Run steps the scenario's flow and
	// publishes snapshots under it, and each connection applies its
	// requests under it, so the world sees one caller at a time.
	mu     sync.Mutex
	world  *scenario.World
	closed bool
}

// NewServer binds the listener and feed socket and builds the scenario's
// world; call Run to serve.
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
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		feedConn: feedConn,
		feedDst:  feedDst,
		feedDstB: feedDstB,
	}
	// NewWorld publishes nothing, so the world exists before Run without
	// reaching the feed.
	s.world = scenario.NewWorld(cfg.Scenario.Script(), cfg.Scenario.Seed(), s.publish)
	return s, nil
}

// OrderAddr returns the bound TCP order-entry address.
func (s *Server) OrderAddr() net.Addr { return s.ln.Addr() }

// Snapshot returns the venue's authoritative top-of-book for sec, read
// under the world lock.
func (s *Server) Snapshot(sec int32) lob.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.world.Snapshot(sec)
}

// Run serves until ctx is cancelled. It plays the scenario's flow: each
// scripted event is applied once its scripted time has passed since Run
// started, and order-entry requests and periodic snapshots interleave with
// them under the world lock, mirroring the per-channel ordering of a real
// venue. Requests carry the latest scripted time reached. When the script
// ends its flow stops; matching and snapshots go on.
func (s *Server) Run(ctx context.Context) error {
	go s.acceptLoop()

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
		case <-flow.C:
			s.mu.Lock()
			for t, ok := s.world.Next(); ok; t, ok = s.world.Next() {
				if wait := time.Until(start.Add(time.Duration(t))); wait > 0 {
					flow.Reset(wait)
					break
				}
				s.world.Step()
			}
			s.mu.Unlock()
		case <-snapshotTick.C:
			s.mu.Lock()
			s.world.PublishSnapshots()
			s.mu.Unlock()
		}
	}
}

// publish writes one packet to the feed channel(s). The world calls it
// under s.mu.
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
func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go s.serveConn(conn)
	}
}

// connState is the per-connection serve state shared between the read loop
// and the frame processor.
type connState struct {
	session *orderentry.VenueSession
	legacy  bool
	lastHB  time.Time
	// acks is the connection's ack frame buffer, reused for every request.
	acks []byte
}

// serveTick bounds how long serveConn blocks in a read before checking
// keep-alive expiry and heartbeat deadlines.
const serveTick = 100 * time.Millisecond

// serveConn reads iLink frames, applies them to the world, and writes
// ExecAck frames back. Sessions may open with the FIXP-style
// Negotiate/Establish handshake (orderentry.VenueSession); clients that
// send a business frame first run in legacy implicit-session mode. The
// read loop is deadline-driven so the venue can terminate established
// sessions whose keep-alive lapsed and emit its own Sequence heartbeats.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	var rb session.Reader
	st := &connState{
		session: orderentry.NewVenueSession(),
		lastHB:  time.Now(),
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(serveTick))
		buf, _, err := rb.Read(conn)
		// Drain every complete frame already buffered before acting on the
		// read error: a peer may write a frame and close in one burst, and
		// those bytes can arrive together with EOF.
		rest, ok := s.processFrames(conn, buf, st)
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
// frames advance the FIXP state machine; business frames are applied to
// the world under s.mu, their acks encoded before the lock is released and
// written after, and a stopped server closes the session. Malformed frames
// terminate the session — never the server: the decoder returns errors (not
// panics) for corrupt SOFH lengths, and consumed is always positive on
// success, so this loop cannot spin.
func (s *Server) processFrames(conn net.Conn, buf []byte, st *connState) ([]byte, bool) {
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
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return buf, false
		}
		st.acks = st.acks[:0]
		for _, rep := range s.world.Submit(*frame.Request) {
			st.acks = orderentry.AppendExecAck(st.acks, orderentry.ExecAck{
				ClOrdID:    rep.ClOrdID,
				Price:      rep.Price,
				Qty:        rep.Qty,
				SecurityID: rep.SecurityID,
				Exec:       rep.Exec,
			})
		}
		s.mu.Unlock()
		if len(st.acks) > 0 {
			st.lastHB = time.Now()
			if _, err := conn.Write(st.acks); err != nil {
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
