package trader

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"lighttrader/internal/feed"
	"lighttrader/internal/sbe"
	"lighttrader/internal/serve"
	"lighttrader/internal/testutil"
)

// udpFeed is a bare loopback *net.UDPConn, the conn ServeFeed batch-reads on
// Linux, and a sender connected to it. Both close with the test.
func udpFeed(t *testing.T) (feedConn, sender *net.UDPConn) {
	t.Helper()
	feedConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { feedConn.Close() })
	// Room for a whole burst queued before the pump reads (capped at rmem_max).
	_ = feedConn.SetReadBuffer(4 << 20)
	sender, err = net.DialUDP("udp", nil, feedConn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.Close() })
	return feedConn, sender
}

// startFeed runs ServeFeed on conn until the returned stop is called; stop
// cancels it and returns ServeFeed's error.
func startFeed(t *testing.T, mt *MultiTrader, conn net.PacketConn) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan error, 1)
	go func() { returned <- mt.ServeFeed(ctx, conn) }()
	t.Cleanup(cancel)
	return func() error {
		cancel()
		select {
		case err := <-returned:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("ServeFeed did not return after cancellation")
			return nil
		}
	}
}

// sequencer numbers copies of a trace's packets 1, 2, 3, ... on the channel.
type sequencer struct {
	ticks []feed.Tick
	seq   uint32
}

func (s *sequencer) next() []byte {
	buf := append([]byte(nil), s.ticks[int(s.seq)%len(s.ticks)].Packet...)
	s.seq++
	binary.LittleEndian.PutUint32(buf[0:], s.seq)
	return buf
}

// big is a decodable 60 014-byte packet, next in sequence: a run of trade
// prints on the traded instrument. Cut short anywhere, it fails to decode.
func (s *sequencer) big() []byte {
	trades := make([]sbe.Message, 1579) // 38 bytes each on the wire
	for i := range trades {
		trades[i].Trade = &sbe.TradeSummary{Price: 450000, Qty: 1, SecurityID: 1}
	}
	s.seq++
	return sbe.AppendPacket(nil, s.seq, 0, trades)
}

// TestServeFeedBurst writes a whole burst to a bare UDP socket before its
// pump starts, so that on Linux the pump meets it as full recvmmsg batches,
// and checks that every datagram reached the arbiter once and in order —
// exact counts with nothing parked or dropped — including an undecodable one
// between decodable neighbours and one of 60 kB read whole.
func TestServeFeedBurst(t *testing.T) {
	for _, tc := range []struct {
		name  string
		burst func(s *sequencer) [][]byte
		bad   int
	}{
		{"in-order", func(s *sequencer) (b [][]byte) {
			for i := 0; i < 128; i++ {
				b = append(b, s.next())
			}
			return b
		}, 0},
		{"undecodable-mid-batch", func(s *sequencer) (b [][]byte) {
			for i := 0; i < 129; i++ {
				if i == 40 {
					b = append(b, []byte{1, 2, 3})
					continue
				}
				b = append(b, s.next())
			}
			return b
		}, 1},
		{"60kB-datagram", func(s *sequencer) (b [][]byte) {
			for i := 0; i < 81; i++ {
				if i == 40 {
					b = append(b, s.big())
					continue
				}
				b = append(b, s.next())
			}
			return b
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mt, ticks := liveLoop(t, Config{}, serve.Config{Lanes: 0}, discardConn{})
			burst := tc.burst(&sequencer{ticks: ticks})
			conn, sender := udpFeed(t)
			for _, d := range burst {
				if _, err := sender.Write(d); err != nil {
					t.Fatal(err)
				}
			}
			stop := startFeed(t, mt, conn)
			testutil.WaitFor(t, 5*time.Second, "the burst", func() bool { return mt.FeedStats().Datagrams >= len(burst) })
			if err := stop(); err != context.Canceled {
				t.Fatalf("ServeFeed returned %v, want context.Canceled", err)
			}
			fs, as := mt.FeedStats(), mt.ArbiterStats()
			if fs.Datagrams != len(burst) || fs.BadDatagrams != tc.bad {
				t.Errorf("ingested %d datagrams, %d bad; want %d, %d", fs.Datagrams, fs.BadDatagrams, len(burst), tc.bad)
			}
			if want := len(burst) - tc.bad; as.Delivered != want || as.Buffered != 0 || as.Duplicates != 0 || as.Gaps != 0 {
				t.Errorf("arbiter %+v, want %d delivered in order and nothing else", as, want)
			}
		})
	}
}

// TestServeFeedIdleUDP is the idle half of TestServeFeedReadDeadline on a
// bare *net.UDPConn: the armed-once deadline still wakes the pump, so a
// datagram after an idle stretch is read and cancellation is seen within
// feedReadTick.
func TestServeFeedIdleUDP(t *testing.T) {
	mt, ticks := liveLoop(t, Config{}, serve.Config{Lanes: 0}, discardConn{})
	conn, sender := udpFeed(t)
	stop := startFeed(t, mt, conn)
	time.Sleep(3*feedReadTick + feedReadTick/2)
	if _, err := sender.Write((&sequencer{ticks: ticks}).next()); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 5*time.Second, "a datagram after the idle stretch", func() bool { return mt.FeedStats().Datagrams == 1 })
	if st := mt.ArbiterStats(); st.Delivered != 1 {
		t.Fatalf("arbiter %+v after one datagram", st)
	}
	time.Sleep(3*feedReadTick + feedReadTick/2)
	cancelled := time.Now()
	if err := stop(); err != context.Canceled {
		t.Fatalf("ServeFeed returned %v, want context.Canceled", err)
	}
	if took := time.Since(cancelled); took > feedReadTick+jitter {
		t.Errorf("ServeFeed took %v to see the cancellation on an idle socket, want within %v", took, feedReadTick)
	}
}
