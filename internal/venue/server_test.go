package venue_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/sbe"
	"lighttrader/internal/testutil"
	"lighttrader/internal/venue"
)

// startServer boots a venue on a static book (ESU6 under security id 7,
// 100 lots a level either side of 450000) publishing to feed, and returns
// its order-entry address.
func startServer(t *testing.T, feed net.PacketConn) net.Addr {
	t.Helper()
	srv, _ := testutil.StartVenue(t, testutil.StaticBook(t, 7), 0, feed)
	return srv.OrderAddr()
}

// listenFeed opens a feed subscription socket closed at cleanup.
func listenFeed(t *testing.T) net.PacketConn {
	t.Helper()
	feed, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { feed.Close() })
	return feed
}

func TestServerOrderEntryRoundTrip(t *testing.T) {
	feed := listenFeed(t)
	addr := startServer(t, feed)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Place a passive bid and expect an accept ack.
	req := exchange.Request{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 42, Side: lob.Bid, Price: 449995, Qty: 3}
	if _, err := conn.Write(orderentry.AppendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := orderentry.DecodeFrame(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if frame.Ack == nil || frame.Ack.ClOrdID != 42 || frame.Ack.Exec != exchange.ExecAccepted {
		t.Fatalf("ack = %+v", frame.Ack)
	}

	// The book change must be published on the feed.
	feed.SetReadDeadline(time.Now().Add(2 * time.Second))
	pbuf := make([]byte, 4096)
	for {
		n, _, err := feed.ReadFrom(pbuf)
		if err != nil {
			t.Fatalf("no market data received: %v", err)
		}
		pkt, err := sbe.DecodePacket(pbuf[:n])
		if err != nil {
			t.Fatalf("bad packet: %v", err)
		}
		for _, m := range pkt.Messages {
			if m.Incremental != nil {
				for _, e := range m.Incremental.Entries {
					if e.Price == 449995 && e.Qty == 103 { // 100 seeded + our 3
						return // found our order's book update
					}
				}
			}
		}
	}
}

func TestServerCrossAcksFill(t *testing.T) {
	addr := startServer(t, listenFeed(t))
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Cross the seeded best ask at 450001.
	req := exchange.Request{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 99, Side: lob.Bid, Price: 450001, Qty: 2}
	if _, err := conn.Write(orderentry.AppendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	total := 0
	var sawFill bool
	for !sawFill {
		n, err := conn.Read(buf[total:])
		if err != nil {
			t.Fatalf("read: %v (fill not seen)", err)
		}
		total += n
		rest := buf[:total]
		for {
			frame, consumed, err := orderentry.DecodeFrame(rest)
			if err != nil {
				break
			}
			rest = rest[consumed:]
			if frame.Ack != nil && frame.Ack.Exec == exchange.ExecFilled && frame.Ack.ClOrdID == 99 {
				if frame.Ack.Price != 450001 || frame.Ack.Qty != 2 {
					t.Fatalf("fill ack = %+v", frame.Ack)
				}
				sawFill = true
			}
		}
	}
}

// TestServerNoiseTraderPublishes holds the venue to its scenario: left
// undisturbed (no client order, no periodic snapshot inside the script) it
// puts exactly the script's Packets() on both feeds, halt gap and reopen
// snapshots included.
func TestServerNoiseTraderPublishes(t *testing.T) {
	src := testutil.ShortScenario(t, "trading-day", 1, 0.3)
	want := src.Packets()
	feeds := []net.PacketConn{listenFeed(t), listenFeed(t)}
	got := make([]chan [][]byte, len(feeds))
	for i, feed := range feeds {
		got[i] = make(chan [][]byte, 1)
		go func() { got[i] <- readPackets(feed, len(want)) }()
	}
	testutil.StartVenue(t, src, time.Hour, feeds...)
	for i := range feeds {
		pkts := <-got[i]
		if len(pkts) != len(want) {
			t.Fatalf("feed %d carried %d packets, the script %d", i, len(pkts), len(want))
		}
		for j := range want {
			if !bytes.Equal(pkts[j], want[j]) {
				t.Fatalf("feed %d packet %d differs from the scenario byte stream", i, j)
			}
		}
	}
}

// readPackets reads n datagrams from feed, or as many as arrive before it
// goes quiet for two seconds.
func readPackets(feed net.PacketConn, n int) [][]byte {
	var out [][]byte
	buf := make([]byte, 64<<10)
	for len(out) < n {
		_ = feed.SetReadDeadline(time.Now().Add(2 * time.Second))
		m, _, err := feed.ReadFrom(buf)
		if err != nil {
			break
		}
		out = append(out, bytes.Clone(buf[:m]))
	}
	return out
}

// TestServerAcceptsLowClientIDs: the venue's own orders keep out of the
// client id space, so a client's ClOrdID 1 is a fresh order, not a
// collision with the seeded book.
func TestServerAcceptsLowClientIDs(t *testing.T) {
	conn, err := net.Dial("tcp", startServer(t, listenFeed(t)).String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := exchange.Request{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 1, Side: lob.Bid, Price: 449995, Qty: 3}
	if _, err := conn.Write(orderentry.AppendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := orderentry.DecodeFrame(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if frame.Ack == nil || frame.Ack.ClOrdID != 1 || frame.Ack.Exec != exchange.ExecAccepted {
		t.Fatalf("ack = %+v", frame.Ack)
	}
}

func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := venue.NewServer(venue.ServerConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestServerSessionHandshake(t *testing.T) {
	addr := startServer(t, listenFeed(t))
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client := orderentry.NewClientSession(0xFEED)

	send := func(buf []byte) {
		t.Helper()
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	recvSession := func() orderentry.SessionFrame {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 4096)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := orderentry.DecodeSessionFrame(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	neg, err := client.Negotiate(time.Now().UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	send(neg)
	if err := client.OnFrame(recvSession(), time.Now().UnixNano()); err != nil {
		t.Fatal(err)
	}
	est, err := client.Establish(time.Now().UnixNano(), 500)
	if err != nil {
		t.Fatal(err)
	}
	send(est)
	if err := client.OnFrame(recvSession(), time.Now().UnixNano()); err != nil {
		t.Fatal(err)
	}
	if client.State() != orderentry.StateEstablished {
		t.Fatalf("client state %v", client.State())
	}

	// Business traffic now flows on the established session.
	send(orderentry.AppendRequest(nil, exchange.Request{
		Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 555, Side: lob.Bid, Price: 449990, Qty: 1,
	}))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := orderentry.DecodeFrame(buf[:n])
	if err != nil || frame.Ack == nil || frame.Ack.Exec != exchange.ExecAccepted {
		t.Fatalf("ack = %+v err %v", frame, err)
	}
}
