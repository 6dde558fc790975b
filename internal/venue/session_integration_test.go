package venue_test

import (
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/testutil"
)

// dialVenue connects to a freshly started server.
func dialVenue(t *testing.T) net.Conn {
	t.Helper()
	addr := startServer(t, listenFeed(t))
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// sendSplit writes buf one byte at a time, forcing the server to reassemble
// the frame across reads.
func sendSplit(t *testing.T, conn net.Conn, buf []byte) {
	t.Helper()
	for i := range buf {
		if _, err := conn.Write(buf[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
}

// readSessionFrame reads until one session frame decodes.
func readSessionFrame(t *testing.T, conn net.Conn) orderentry.SessionFrame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 0, 4096)
	tmp := make([]byte, 1024)
	for {
		f, _, err := orderentry.DecodeSessionFrame(buf)
		if err == nil {
			return f
		}
		if !errors.Is(err, orderentry.ErrILinkShort) {
			t.Fatalf("session frame decode: %v", err)
		}
		n, err := conn.Read(tmp)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		buf = append(buf, tmp[:n]...)
	}
}

// establish drives the FIXP handshake over conn.
func establish(t *testing.T, conn net.Conn, uuid uint64, keepAliveMillis uint32, split bool) *orderentry.ClientSession {
	t.Helper()
	client := orderentry.NewClientSession(uuid)
	neg, err := client.Negotiate(time.Now().UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	if split {
		sendSplit(t, conn, neg)
	} else if _, err := conn.Write(neg); err != nil {
		t.Fatal(err)
	}
	if err := client.OnFrame(readSessionFrame(t, conn), time.Now().UnixNano()); err != nil {
		t.Fatal(err)
	}
	est, err := client.Establish(time.Now().UnixNano(), keepAliveMillis)
	if err != nil {
		t.Fatal(err)
	}
	if split {
		sendSplit(t, conn, est)
	} else if _, err := conn.Write(est); err != nil {
		t.Fatal(err)
	}
	if err := client.OnFrame(readSessionFrame(t, conn), time.Now().UnixNano()); err != nil {
		t.Fatal(err)
	}
	if client.State() != orderentry.StateEstablished {
		t.Fatalf("client state %v", client.State())
	}
	return client
}

// TestServerHandshakeSplitAcrossReads drives the full Negotiate/Establish
// handshake with every frame delivered one byte per TCP segment.
func TestServerHandshakeSplitAcrossReads(t *testing.T) {
	conn := dialVenue(t)
	establish(t, conn, 0xBEEF, 500, true)
}

// TestServerBurstAcrossReadBuffer sends more order flow in one write than
// the server's 2048-byte read buffer holds, so frames necessarily straddle
// read boundaries, and counts every ack.
func TestServerBurstAcrossReadBuffer(t *testing.T) {
	conn := dialVenue(t)
	establish(t, conn, 0xB0B, 500, false)

	// 33-byte new-order frames; 120 of them ≈ 4 KB, twice the read buffer.
	const orders = 120
	var burst []byte
	for i := 0; i < orders; i++ {
		burst = orderentry.AppendRequest(burst, exchange.Request{
			Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: uint64(1000 + i),
			Side: lob.Bid, Price: 449000 - int64(i), Qty: 1,
		})
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 0, 8192)
	tmp := make([]byte, 1024)
	acks := 0
	for acks < orders {
		n, err := conn.Read(tmp)
		if err != nil {
			t.Fatalf("read after %d acks: %v", acks, err)
		}
		buf = append(buf, tmp[:n]...)
		for {
			// Venue heartbeats may interleave with acks on a slow run.
			if _, consumed, err := orderentry.DecodeSessionFrame(buf); err == nil {
				buf = buf[consumed:]
				continue
			}
			frame, consumed, err := orderentry.DecodeFrame(buf)
			if errors.Is(err, orderentry.ErrILinkShort) {
				break
			}
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			buf = buf[consumed:]
			if frame.Ack != nil && frame.Ack.Exec == exchange.ExecAccepted {
				acks++
			}
		}
	}
}

// TestServerCorruptFrameTerminatesSessionNotServer feeds an established
// session the frameLen=6 reproducer datagram. The venue must answer with
// Terminate(protocol error), close only that session, and keep serving a
// second, healthy connection.
func TestServerCorruptFrameTerminatesSessionNotServer(t *testing.T) {
	addr := startServer(t, listenFeed(t))
	bad, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	establish(t, bad, 0xDEAD, 500, false)

	repro := append([]byte{6, 0, 0xFE, 0xCA}, make([]byte, 12)...)
	if _, err := bad.Write(repro); err != nil {
		t.Fatal(err)
	}
	f := readSessionFrame(t, bad)
	if f.Reason != orderentry.TerminateProtocolError {
		t.Fatalf("terminate reason = %d, frame %+v", f.Reason, f)
	}
	// The connection must be closed after the terminate.
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	tmp := make([]byte, 64)
	for {
		if _, err := bad.Read(tmp); err != nil {
			break
		}
	}

	// The venue is still alive: a fresh established session round-trips an
	// order.
	good := testutil.DialSession(t, addr)
	req := exchange.Request{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 77, Side: lob.Bid, Price: 449990, Qty: 1}
	if _, err := good.Write(orderentry.AppendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	good.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := good.Read(buf)
	if err != nil {
		t.Fatalf("venue stopped serving after corrupt stream: %v", err)
	}
	frame, _, err := orderentry.DecodeFrame(buf[:n])
	if err != nil || frame.Ack == nil || frame.Ack.ClOrdID != 77 {
		t.Fatalf("ack = %+v err %v", frame, err)
	}
}

// TestServerCorruptFrameOnIdleConnDropsQuietly: a connection that opens
// with garbage (no session) is cut without taking the server down.
func TestServerCorruptFrameOnIdleConnDropsQuietly(t *testing.T) {
	addr := startServer(t, listenFeed(t))
	bad, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write(append([]byte{6, 0, 0xFE, 0xCA}, make([]byte, 12)...)); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	tmp := make([]byte, 64)
	sawClose := false
	for !sawClose {
		if _, err := bad.Read(tmp); err != nil {
			sawClose = true
		}
	}
	// Server still accepts new sessions.
	good, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	good.Close()
}

// TestServerBusinessOnIdleSessionCloses: an order on a connection that never
// negotiated is a protocol error. The venue closes the connection without an
// ack, and the order never reaches the book.
func TestServerBusinessOnIdleSessionCloses(t *testing.T) {
	srv, _ := testutil.StartVenue(t, testutil.StaticBook(t, 7), 0, listenFeed(t))
	conn, err := net.Dial("tcp", srv.OrderAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	before := srv.Snapshot(7)
	req := exchange.Request{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 4343, Side: lob.Bid, Price: 449997, Qty: 5}
	if _, err := conn.Write(orderentry.AppendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("the venue kept an unnegotiated session open: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("the venue answered an order on an idle session with %d bytes", len(got))
	}
	if after := srv.Snapshot(7); !reflect.DeepEqual(after, before) {
		t.Fatalf("an order on an idle session moved the book:\n%+v\n→ %+v", before, after)
	}
}

// TestServerKeepAliveExpiry establishes a session with a short keep-alive
// and goes silent; the venue must send Terminate(keep-alive expired) and
// close the connection.
func TestServerKeepAliveExpiry(t *testing.T) {
	conn := dialVenue(t)
	establish(t, conn, 0xC0DE, 100, false)

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 0, 1024)
	tmp := make([]byte, 256)
	for {
		n, err := conn.Read(tmp)
		if err != nil {
			t.Fatalf("no terminate before close: %v", err)
		}
		buf = append(buf, tmp[:n]...)
		for {
			f, consumed, err := orderentry.DecodeSessionFrame(buf)
			if err != nil {
				break
			}
			buf = buf[consumed:]
			if f.Reason == orderentry.TerminateKeepAliveExpired && f.UUID == 0xC0DE {
				return
			}
			// Venue heartbeats (Sequence) arrive first; skip them.
		}
	}
}

// TestServerHeartbeatsWhileEstablished: an established but quiet client that
// does send its own heartbeats must receive venue Sequence frames and never
// be expired.
func TestServerHeartbeatsWhileEstablished(t *testing.T) {
	conn := dialVenue(t)
	client := establish(t, conn, 0xF00D, 200, false)

	deadline := time.Now().Add(1200 * time.Millisecond)
	buf := make([]byte, 0, 1024)
	tmp := make([]byte, 256)
	venueHeartbeats := 0
	for time.Now().Before(deadline) {
		if hb := client.Heartbeat(time.Now().UnixNano()); hb != nil {
			if _, err := conn.Write(hb); err != nil {
				t.Fatalf("heartbeat write: %v", err)
			}
		}
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, err := conn.Read(tmp)
		if n > 0 {
			buf = append(buf, tmp[:n]...)
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			t.Fatalf("venue dropped a live session: %v", err)
		}
		for {
			f, consumed, derr := orderentry.DecodeSessionFrame(buf)
			if derr != nil {
				break
			}
			buf = buf[consumed:]
			switch {
			case f.Template == 506: // Sequence
				venueHeartbeats++
			case f.Template == 507:
				t.Fatalf("live session terminated: reason %d", f.Reason)
			}
		}
	}
	if venueHeartbeats == 0 {
		t.Fatal("venue sent no heartbeats to an established session")
	}
}

// TestServerDrainsFramesAtEOF writes a complete order frame and immediately
// closes the write side; the order must still reach the engine.
func TestServerDrainsFramesAtEOF(t *testing.T) {
	srv, _ := testutil.StartVenue(t, testutil.StaticBook(t, 7), 0, listenFeed(t))

	conn := testutil.DialSession(t, srv.OrderAddr())
	req := exchange.Request{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 4242, Side: lob.Bid, Price: 449997, Qty: 5}
	if _, err := conn.Write(orderentry.AppendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	conn.Close() // frame and FIN race into the server together

	// The resting order must appear in the venue book even though the
	// session is gone before any ack could be written: 100 seeded lots at
	// this level plus our 5.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		for _, lvl := range srv.Snapshot(7).Bids {
			if lvl.Price == 449997 && lvl.Qty == 105 {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("order written at EOF never reached the engine")
}

// TestServerDualFeedPublishesBoth verifies A/B publication: both sockets
// receive the venue's periodic snapshots on a static book.
func TestServerDualFeedPublishesBoth(t *testing.T) {
	feedA, feedB := listenFeed(t), listenFeed(t)
	testutil.StartVenue(t, testutil.StaticBook(t, 7), 50*time.Millisecond, feedA, feedB)

	for _, feed := range []net.PacketConn{feedA, feedB} {
		feed.SetReadDeadline(time.Now().Add(3 * time.Second))
		buf := make([]byte, 4096)
		if _, _, err := feed.ReadFrom(buf); err != nil {
			t.Fatalf("feed %v received nothing: %v", feed.LocalAddr(), err)
		}
	}
}
