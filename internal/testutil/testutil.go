// Package testutil holds the polling and goroutine-leak helpers the
// networked integration tests share (trader chaos/multi loops, signal
// gateway churn), the live venue they trade against, and the one-book
// E-mini tick trace the pipeline, baseline and tick-path tests replay, and
// the established order-entry session tests send orders on. The
// helpers encode one convention: quiesce is observed by polling, and a test
// that spawns goroutines proves they wind down.
package testutil

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"lighttrader/internal/feed"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/scenario"
	"lighttrader/internal/venue"
)

// WaitFor polls cond every 10ms until it holds or the deadline lapses,
// failing the test with what on timeout.
func WaitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// LeakCheck snapshots the goroutine count at test start; Verify asserts
// the count returns to within a small slack of it. The slack absorbs
// runtime housekeeping goroutines (test timers, netpoller) that are not
// leaks.
type LeakCheck struct {
	base int
}

// StartLeakCheck snapshots the current goroutine count.
func StartLeakCheck() LeakCheck {
	return LeakCheck{base: runtime.NumGoroutine()}
}

// Verify waits up to d for the goroutine count to drain back to the
// snapshot (plus slack 2), failing the test otherwise.
func (lc LeakCheck) Verify(t testing.TB, d time.Duration) {
	t.Helper()
	WaitFor(t, d, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= lc.base+2
	})
}

// StaticBook is a market that never moves: ESU6 listed under sec, seeded
// with 100 lots on each visible level either side of 450000, and a script
// with no phases.
func StaticBook(t testing.TB, sec int32) *scenario.Source {
	t.Helper()
	src, err := scenario.New("static", scenario.Script{Instruments: []scenario.Instrument{
		{SecurityID: sec, Symbol: "ESU6", MidPrice: 450000, DepthPerLevel: 100}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// CMEBook is the one book CMETicks publishes.
var CMEBook = scenario.Instrument{SecurityID: 1, Symbol: "ESU6", MidPrice: 450000, DepthPerLevel: 50}

// CMETicks returns the first n ticks of CMEBook at E-mini intensity
// (feed.DefaultCMEParams: ≈ 2 000 ticks/s, branching ratio 0.8) at seed 1.
// The phase runs 0.5 + n/1000 s, long enough for n ticks; a longer phase
// would give the same first n.
func CMETicks(tb testing.TB, n int) []feed.Tick {
	tb.Helper()
	src, err := scenario.New("cme", scenario.Script{
		Instruments: []scenario.Instrument{CMEBook},
		Phases: []scenario.Phase{{Name: "cme", DurationSecs: 0.5 + float64(n)/1000,
			Arrivals: scenario.ArrivalSpec{Hawkes: []feed.HawkesParams{feed.DefaultCMEParams()}}}},
	}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ticks := src.Ticks()
	if len(ticks) < n {
		tb.Fatalf("cme stream has %d ticks, want %d", len(ticks), n)
	}
	return ticks[:n]
}

// ShortScenario is the named registry scenario at seed with every phase
// scaled so the whole script plays in secs seconds.
func ShortScenario(t testing.TB, name string, seed int64, secs float64) *scenario.Source {
	t.Helper()
	src, err := scenario.ByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	sc := src.Script()
	var total float64
	for _, ph := range sc.Phases {
		total += ph.DurationSecs
	}
	for i := range sc.Phases {
		sc.Phases[i].DurationSecs *= secs / total
	}
	if src, err = scenario.New(name, sc, seed); err != nil {
		t.Fatal(err)
	}
	return src
}

// StartVenue runs a venue playing src, publishing to feeds (A, then an
// optional B; a throwaway socket when none is given) with a recovery
// snapshot every snapEvery (zero selects the venue's default). stop
// cancels the venue and waits for Run to return; cleanup calls it too.
func StartVenue(t testing.TB, src *scenario.Source, snapEvery time.Duration, feeds ...net.PacketConn) (srv *venue.Server, stop func()) {
	t.Helper()
	if len(feeds) == 0 {
		sink, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sink.Close() })
		feeds = append(feeds, sink)
	}
	cfg := venue.ServerConfig{
		OrderAddr:        "127.0.0.1:0",
		FeedAddr:         feeds[0].LocalAddr().String(),
		Scenario:         src,
		SnapshotInterval: snapEvery,
	}
	if len(feeds) > 1 {
		cfg.FeedAddrB = feeds[1].LocalAddr().String()
	}
	srv, err := venue.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Run(ctx) }()
	stop = sync.OnceFunc(func() {
		cancel()
		<-done
	})
	t.Cleanup(stop)
	return srv, stop
}

// DialSession connects to the venue's order entry at addr and drives the
// FIXP Negotiate/Establish handshake with an hour-long keep-alive, longer
// than any test, so the venue neither heartbeats nor expires the session
// mid-test. Cleanup closes the connection.
func DialSession(t testing.TB, addr net.Addr) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	client := orderentry.NewClientSession(1)
	var buf []byte
	tmp := make([]byte, 64)
	// step sends out and applies the one session frame the venue answers.
	step := func(out []byte, err error) {
		t.Helper()
		if err == nil {
			_, err = conn.Write(out)
		}
		for err == nil {
			f, n, derr := orderentry.DecodeSessionFrame(buf)
			if !errors.Is(derr, orderentry.ErrILinkShort) {
				if err = derr; err == nil {
					buf = buf[n:]
					err = client.OnFrame(f, time.Now().UnixNano())
				}
				break
			}
			n, err = conn.Read(tmp)
			buf = append(buf, tmp[:n]...)
		}
		if err != nil {
			t.Fatalf("session handshake: %v", err)
		}
	}
	step(client.Negotiate(time.Now().UnixNano()))
	step(client.Establish(time.Now().UnixNano(), uint32(time.Hour/time.Millisecond)))
	if client.State() != orderentry.StateEstablished {
		t.Fatalf("session %v after the handshake", client.State())
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn
}
