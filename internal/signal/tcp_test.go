package signal

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"lighttrader/internal/faultnet"
	"lighttrader/internal/testutil"
)

// startWireGateway spins up a gateway serving TCP on 127.0.0.1:0 and
// returns it with the listen address. Closed via t.Cleanup.
func startWireGateway(t *testing.T, cfg Config) (*Gateway, string) {
	t.Helper()
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = g.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		g.Close()
		<-done
	})
	return g, ln.Addr().String()
}

// splitConn splits every Write into seeded 1..3-byte writes, so frames
// straddle TCP segments and the peer's read boundaries.
type splitConn struct {
	net.Conn
	rng *rand.Rand
}

func newSplitConn(c net.Conn, seed int64) *splitConn {
	return &splitConn{Conn: c, rng: rand.New(rand.NewSource(seed))}
}

func (c *splitConn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		n, err := c.Conn.Write(p[written : written+min(1+c.rng.Intn(3), len(p)-written)])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// TestSplitConnPreservesBytes holds the splitter to its contract: the peer
// reads the written bytes in order, and never more than 3 from one write.
func TestSplitConnPreservesBytes(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	sc := newSplitConn(client, 3)

	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 40)
	errCh := make(chan error, 1)
	go func() {
		_, err := sc.Write(payload)
		errCh <- err
	}()
	got := make([]byte, 0, len(payload))
	tmp := make([]byte, 16)
	for len(got) < len(payload) {
		server.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := server.Read(tmp)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if n > 3 {
			t.Fatalf("read %d bytes from one write, want at most 3", n)
		}
		got = append(got, tmp[:n]...)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("split writes corrupted the stream")
	}
}

// TestTCPEndToEnd runs the full wire path — publish hook → shard → conn
// outbox → length-prefixed TCP → Client — with the client's writes split
// into 1..3-byte chunks (splitConn), so its subscribe and heartbeat frames
// straddle the gateway's read boundaries and the gateway's ErrShortFrame
// reassembly path runs.
func TestTCPEndToEnd(t *testing.T) {
	leak := testutil.StartLeakCheck()
	t.Cleanup(func() { leak.Verify(t, 5*time.Second) }) // after gateway teardown (LIFO)
	g, addr := startWireGateway(t, Config{Shards: 4, heartbeat: 100 * time.Millisecond})
	pub, err := g.Register("ESU6", 1)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []TradeSignal
	cli := NewClient(ClientConfig{
		Symbols: []string{"ESU6"},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return newSplitConn(conn, 7), nil
		},
		OnSignal: func(sig TradeSignal) {
			mu.Lock()
			got = append(got, sig)
			mu.Unlock()
		},
		heartbeat: 100 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cliDone := make(chan struct{})
	go func() { defer close(cliDone); _ = cli.Run(ctx) }()

	// The subscribe frame races the first publish; wait for attachment.
	testutil.WaitFor(t, 5*time.Second, "wire subscriber attached", func() bool {
		return g.Stats().Subscribers == 1
	})

	const rounds = 20
	for i := 1; i <= rounds; i++ {
		pub.Publish(ev(i))
		g.Drain()
		want := uint64(i)
		testutil.WaitFor(t, 5*time.Second, "client receipt", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) > 0 && got[len(got)-1].Seq == want
		})
	}

	mu.Lock()
	last := got[len(got)-1]
	total := len(got)
	mu.Unlock()
	if last.Symbol != "ESU6" || last.SecurityID != 1 || last.BidPrice != 100+rounds || last.AskPrice != 101+rounds {
		t.Fatalf("field fidelity over the wire: %+v", last)
	}
	st := cli.Stats()
	if st.SignalsReceived != uint64(total) || st.GapDrops != rounds-uint64(total) {
		t.Fatalf("client accounting: %+v with %d callbacks", st, total)
	}
	gs := g.Stats()
	if gs.Published != rounds || gs.ConnsTotal != 1 || gs.ConnsDropped != 0 {
		t.Fatalf("gateway stats: %+v", gs)
	}

	cancel()
	<-cliDone
}

// TestTCPSlowReaderDropped is the wire-level isolation guarantee: a
// subscriber that heartbeats (stays live) but never reads its socket
// eventually trips the per-connection write deadline and is dropped —
// while an in-process subscriber on the same symbol keeps receiving and
// the publisher never blocks.
func TestTCPSlowReaderDropped(t *testing.T) {
	leak := testutil.StartLeakCheck()
	t.Cleanup(func() { leak.Verify(t, 5*time.Second) }) // after gateway teardown (LIFO)
	g, addr := startWireGateway(t, Config{
		Shards:          2,
		heartbeat:       100 * time.Millisecond,
		writeTimeout:    50 * time.Millisecond,
		connWriteBuffer: 4096,
	})
	pub, err := g.Register("ESU6", 1)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := g.Subscribe("ESU6")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096) // shrink the sink so the deadline trips fast
	}
	sub, err := AppendSubscribeFrame(nil, "ESU6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(sub); err != nil {
		t.Fatal(err)
	}
	// Keep the connection "live" without ever reading: heartbeats only.
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				if _, err := conn.Write(AppendHeartbeatFrame(nil)); err != nil {
					return
				}
			}
		}
	}()
	defer func() { close(hbStop); <-hbDone }()

	testutil.WaitFor(t, 5*time.Second, "wire subscriber attached", func() bool {
		return g.Stats().Subscribers == 2
	})

	// Flood: every iteration must return promptly (never-block contract) —
	// the deadline on the whole loop is the proof. The stalled connection
	// must get dropped while the in-process reader keeps making progress.
	deadline := time.Now().Add(10 * time.Second)
	var healthyReceived uint64
	i := 0
	for g.Stats().ConnsDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow wire reader never dropped: %+v", g.Stats())
		}
		i++
		pub.Publish(ev(i))
		select {
		case <-healthy.C():
			healthyReceived++
		default:
		}
	}
	g.Drain()
	for {
		select {
		case <-healthy.C():
			healthyReceived++
			continue
		default:
		}
		break
	}
	if healthyReceived == 0 {
		t.Fatal("in-process subscriber starved by a stalled wire peer")
	}
	testutil.WaitFor(t, 5*time.Second, "dropped conn detached", func() bool {
		return g.Stats().Subscribers == 1
	})
	if got := g.Stats().ConnsOpen; got != 0 {
		t.Fatalf("dropped conn still counted open: %d", got)
	}
}

// TestTCPClientReconnect injects a byte-budget reset (faultnet) into every
// connection: the client must redial with backoff, resubscribe, and keep
// counting Seq gaps across sessions.
func TestTCPClientReconnect(t *testing.T) {
	leak := testutil.StartLeakCheck()
	t.Cleanup(func() { leak.Verify(t, 5*time.Second) }) // after gateway teardown (LIFO)
	g, addr := startWireGateway(t, Config{Shards: 2, heartbeat: 50 * time.Millisecond})
	pub, err := g.Register("ESU6", 1)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seqs []uint64
	cli := NewClient(ClientConfig{
		Symbols: []string{"ESU6"},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultnet.WrapConn(conn, faultnet.ConnFaults{ResetAfter: 2000}), nil
		},
		OnSignal: func(sig TradeSignal) {
			mu.Lock()
			seqs = append(seqs, sig.Seq)
			mu.Unlock()
		},
		heartbeat:  50 * time.Millisecond,
		backoffMin: 10 * time.Millisecond,
		backoffMax: 50 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cliDone := make(chan struct{})
	go func() { defer close(cliDone); _ = cli.Run(ctx) }()

	// Publish until the reset budget has torn down at least one session and
	// a second session has received signals.
	pubStop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		i := 0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pubStop:
				return
			case <-tick.C:
				i++
				pub.Publish(ev(i))
			}
		}
	}()
	testutil.WaitFor(t, 15*time.Second, "reconnected session receiving", func() bool {
		st := cli.Stats()
		return st.Dials >= 2 && st.Sessions >= 2
	})
	close(pubStop)
	<-pubDone

	st := cli.Stats()
	if st.SignalsReceived == 0 {
		t.Fatalf("no signals across sessions: %+v", st)
	}
	mu.Lock()
	nondecreasing := true
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			nondecreasing = false
		}
	}
	mu.Unlock()
	if !nondecreasing {
		t.Fatalf("Seq regressed across reconnects: %v", seqs)
	}
	if g.Stats().ConnsTotal < 2 {
		t.Fatalf("gateway saw %d conns, want >= 2", g.Stats().ConnsTotal)
	}

	cancel()
	<-cliDone
}
