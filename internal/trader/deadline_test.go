package trader

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lighttrader/internal/orderentry"
	"lighttrader/internal/serve"
	"lighttrader/internal/testutil"
)

// jitter is what a loaded CI host (race detector on) may add to a timed wait.
const jitter = 250 * time.Millisecond

// countedPacketConn counts the pump's reads and deadline arms.
type countedPacketConn struct {
	net.PacketConn
	reads, arms atomic.Int64
}

func (c *countedPacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	c.reads.Add(1)
	return c.PacketConn.ReadFrom(b)
}

func (c *countedPacketConn) SetReadDeadline(t time.Time) error {
	c.arms.Add(1)
	return c.PacketConn.SetReadDeadline(t)
}

// TestServeFeedReadDeadline pins both sides of the armed-once read deadline:
// a busy socket re-arms it once per feedReadTick, not once per datagram, and
// an idle one still wakes every feedReadTick — without spinning once the
// first deadline has passed — so cancellation is seen within that bound and
// datagrams after an idle stretch are still read.
func TestServeFeedReadDeadline(t *testing.T) {
	mt, _ := liveLoop(t, Config{}, serve.Config{Lanes: 0}, discardConn{})
	sock, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	conn := &countedPacketConn{PacketConn: sock}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- mt.ServeFeed(ctx, conn) }()

	leg, err := net.Dial("udp", sock.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer leg.Close()
	// Busy: undecodable datagrams are counted and dropped, which is all the
	// pump needs to be kept reading. Loopback sheds what overruns the socket
	// buffer, so the burst goes on until enough has been read.
	start := time.Now()
	for mt.FeedStats().Datagrams < 500 {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("pump read %d datagrams in %v", mt.FeedStats().Datagrams, time.Since(start))
		}
		for i := 0; i < 100; i++ {
			if _, err := leg.Write([]byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if arms, most := conn.arms.Load(), int64(time.Since(start)/feedReadTick)+2; arms > most {
		t.Errorf("%d deadline arms for %d datagrams in %v, want at most %d: one per expiry, not one per read",
			arms, mt.FeedStats().Datagrams, time.Since(start), most)
	}

	// Idle: a read per tick, then a datagram is still picked up.
	testutil.WaitFor(t, 5*time.Second, "the socket to drain", func() bool {
		n := mt.FeedStats().Datagrams
		time.Sleep(20 * time.Millisecond)
		return mt.FeedStats().Datagrams == n
	})
	reads, idleFor := conn.reads.Load(), 3*feedReadTick+feedReadTick/2
	time.Sleep(idleFor)
	if n := conn.reads.Load() - reads; n < 2 || n > int64(idleFor/feedReadTick)+2 {
		t.Errorf("%d reads in %v of silence, want one per %v", n, idleFor, feedReadTick)
	}
	seen := mt.FeedStats().Datagrams
	if _, err := leg.Write([]byte{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 5*time.Second, "a datagram after the idle stretch", func() bool { return mt.FeedStats().Datagrams > seen })

	cancelled := time.Now()
	cancel()
	select {
	case err := <-returned:
		if took := time.Since(cancelled); err != context.Canceled || took > feedReadTick+jitter {
			t.Errorf("ServeFeed returned %v after %v, want context.Canceled within %v", err, took, feedReadTick)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeFeed never saw the cancellation on an idle socket")
	}
}

// countedConn counts the session loop's reads.
type countedConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countedConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

// TestSessionReadDeadline is the same pin for the order-entry session: a
// venue that establishes and then only listens must be sent a heartbeat
// every keep-alive interval, give or take readTick, and be declared dead
// three intervals after its last word, give or take the same — with the
// loop waking once per readTick in between, not spinning on a deadline that
// has passed.
func TestSessionReadDeadline(t *testing.T) {
	const keepAlive = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var established time.Time
	var beats []time.Time
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		vs := orderentry.NewVenueSession()
		var buf []byte
		tmp := make([]byte, 512)
		for {
			n, err := conn.Read(tmp)
			if err != nil {
				return
			}
			now := time.Now()
			buf = append(buf, tmp[:n]...)
			for {
				f, used, err := orderentry.DecodeSessionFrame(buf)
				if err != nil {
					break
				}
				buf = buf[used:]
				was := vs.State()
				reply, _ := vs.OnFrame(f, now.UnixNano())
				mu.Lock()
				switch {
				case was != orderentry.StateEstablished && vs.State() == orderentry.StateEstablished:
					established = now
				case was == orderentry.StateEstablished:
					beats = append(beats, now)
					reply = nil // heard, never answered
				}
				mu.Unlock()
				if reply != nil {
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}
		}
	}()

	conn := &countedConn{}
	client := NewClient(Config{UUID: 0xCAFE25, KeepAliveMillis: uint32(keepAlive / time.Millisecond),
		BackoffMin: time.Hour, // one session is the test
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", ln.Addr().String())
			conn.Conn = c
			return conn, err
		}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = client.Run(ctx) }()
	testutil.WaitFor(t, 5*time.Second, "keep-alive expiry on the silent venue", func() bool {
		return client.Stats().KeepAliveExpiries >= 1
	})
	expired := time.Now()
	reads := conn.reads.Load()
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	if established.IsZero() || len(beats) < 2 {
		t.Fatalf("session established at %v and sent %d heartbeats before giving up, want at least 2", established, len(beats))
	}
	for i, last := 0, established; i < len(beats); i++ {
		if gap := beats[i].Sub(last); gap > keepAlive+readTick+jitter {
			t.Errorf("heartbeat %d came %v after the previous send, want within %v + %v", i, gap, keepAlive, readTick)
		}
		last = beats[i]
	}
	life := expired.Sub(established)
	if life < 3*keepAlive-readTick || life > 3*keepAlive+readTick+jitter {
		t.Errorf("silent venue declared dead after %v, want %v give or take %v", life, 3*keepAlive, readTick)
	}
	if most := int64(life/readTick) + 8; reads > most { // the handshake's reads on top of one per tick
		t.Errorf("%d reads in a %v session, want about one per %v: the loop spins on an expired deadline", reads, life, readTick)
	}
}
