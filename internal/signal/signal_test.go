package signal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/testutil"
)

// testGateway builds a gateway on a deterministic monotonic clock and
// registers it for cleanup.
func testGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.clock == nil {
		var clk atomic.Int64
		cfg.clock = func() int64 { return clk.Add(1) }
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func ev(i int) core.SignalEvent {
	return core.SignalEvent{
		Action: nn.Up, Confidence: 0.9,
		BidPrice: int64(100 + i), BidQty: 3, AskPrice: int64(101 + i), AskQty: 2,
		LastTrade: int64(100 + i), TickNanos: int64(i),
	}
}

// TestConflationLatestValueWins publishes to subscribers that never read,
// then checks the latest-value-wins contract: each holds exactly the newest
// signal and every other update is accounted as a conflation drop. A burst
// lets a shard skip updates (drops counted from the Seq gap); draining
// every round instead delivers each publish to each subscriber, so
// delivered is exactly rounds × subscribers and every drop is a replaced
// value. Both hold at any shard count.
func TestConflationLatestValueWins(t *testing.T) {
	const n = 100
	for _, tc := range []struct {
		shards, symbols, subs int // subs per symbol
		drain                 bool
	}{
		{2, 1, 1, false},
		{1, 3, 5, false}, {2, 3, 5, false}, {8, 3, 5, false},
		{1, 3, 5, true}, {2, 3, 5, true}, {8, 3, 5, true},
	} {
		t.Run(fmt.Sprintf("shards=%d/symbols=%d/subs=%d/drain=%v", tc.shards, tc.symbols, tc.subs, tc.drain), func(t *testing.T) {
			g := testGateway(t, Config{Shards: tc.shards})
			var pubs []*Publisher
			var subs []*Subscription
			for s := range tc.symbols {
				sym := fmt.Sprintf("SYM%d", s)
				pub, err := g.Register(sym, int32(s+1))
				if err != nil {
					t.Fatal(err)
				}
				pubs = append(pubs, pub)
				for range tc.subs {
					sub, err := g.Subscribe(sym)
					if err != nil {
						t.Fatal(err)
					}
					defer sub.Close()
					subs = append(subs, sub)
				}
			}

			for i := 1; i <= n; i++ {
				for _, pub := range pubs {
					pub.Publish(ev(i))
				}
				if tc.drain {
					g.Drain()
				}
			}
			g.Drain()

			for k, sub := range subs {
				select {
				case sig := <-sub.C():
					if sig.Seq != n {
						t.Fatalf("subscriber %d: buffered Seq = %d, want the newest (%d)", k, sig.Seq, n)
					}
					if s := k / tc.subs; sig.BidPrice != 100+n || sig.Symbol != fmt.Sprintf("SYM%d", s) || sig.SecurityID != int32(s+1) {
						t.Fatalf("subscriber %d: unexpected signal %+v", k, sig)
					}
				default:
					t.Fatalf("subscriber %d: no signal buffered after %d publishes", k, n)
				}
				if drops := sub.Drops(); drops != n-1 {
					t.Fatalf("subscriber %d: Drops = %d, want %d (received 1 of %d)", k, drops, n-1, n)
				}
			}
			st, all := g.Stats(), uint64(len(subs))
			if st.Published != uint64(n*tc.symbols) || st.ConflationDrops != (n-1)*all {
				t.Fatalf("stats %+v, want Published=%d ConflationDrops=%d", st, n*tc.symbols, (n-1)*all)
			}
			lo := all // a burst delivers at least the newest value to each subscriber
			if tc.drain {
				lo = n * all
			}
			if st.Delivered < lo || st.Delivered > n*all {
				t.Fatalf("Delivered = %d, want %d to %d", st.Delivered, lo, n*all)
			}
		})
	}
}

// TestLateJoinerWarmStart subscribes after publishing (on a stream a
// since-departed subscriber activated) and expects the pre-existing
// latest value to arrive without a fresh publish — and without history
// counted as drops.
func TestLateJoinerWarmStart(t *testing.T) {
	g := testGateway(t, Config{Shards: 1})
	pub, err := g.Register("NQU6", 2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := g.Subscribe("NQU6") // activates the stream's latest-value slot
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	for i := 1; i <= 5; i++ {
		pub.Publish(ev(i))
	}
	sub, err := g.Subscribe("NQU6")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	select {
	case sig := <-sub.C():
		if sig.Seq != 5 {
			t.Fatalf("warm-start Seq = %d, want 5", sig.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late joiner never received the latest value")
	}
	if drops := sub.Drops(); drops != 0 {
		t.Fatalf("pre-subscription history counted as drops: %d", drops)
	}
}

// TestSlowReaderIsolation pairs a keeping-up reader with one that never
// reads on the same symbol: the fast reader sees every update with zero
// drops, the slow reader accrues exactly the conflated count, and the
// publisher is never blocked by either.
func TestSlowReaderIsolation(t *testing.T) {
	g := testGateway(t, Config{Shards: 4})
	pub, err := g.Register("YMU6", 3)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := g.Subscribe("YMU6")
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	slow, err := g.Subscribe("YMU6")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	const n = 10
	for i := 1; i <= n; i++ {
		pub.Publish(ev(i))
		g.Drain() // delivery complete before the fast reader drains
		sig := <-fast.C()
		if sig.Seq != uint64(i) {
			t.Fatalf("fast reader Seq = %d at step %d", sig.Seq, i)
		}
	}
	if fast.Drops() != 0 {
		t.Fatalf("keeping-up reader dropped %d updates", fast.Drops())
	}
	if slow.Drops() != n-1 {
		t.Fatalf("slow reader Drops = %d, want %d", slow.Drops(), n-1)
	}
	if sig := <-slow.C(); sig.Seq != n {
		t.Fatalf("slow reader buffered Seq = %d, want newest %d", sig.Seq, n)
	}
}

// TestSeqGapsEqualDrops checks the documented gap contract: the updates a
// consumer missed are exactly the gaps between received Seq values.
func TestSeqGapsEqualDrops(t *testing.T) {
	g := testGateway(t, Config{Shards: 1})
	pub, err := g.Register("RTY", 4)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := g.Subscribe("RTY")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var received []uint64
	seq := uint64(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 7; i++ {
			seq++
			pub.Publish(ev(int(seq)))
		}
		g.Drain()
		received = append(received, (<-sub.C()).Seq)
	}
	var gaps uint64
	prev := uint64(0)
	for _, s := range received {
		gaps += s - prev - 1
		prev = s
	}
	if drops := sub.Drops(); drops != gaps {
		t.Fatalf("Drops = %d, Seq gaps = %d (received %v)", drops, gaps, received)
	}
}

// TestSubscriberChurn hammers subscribe/close from many goroutines while
// a publisher runs, then verifies counters settle and nothing leaks.
func TestSubscriberChurn(t *testing.T) {
	leak := testutil.StartLeakCheck()
	g := testGateway(t, Config{Shards: 8})
	pub, err := g.Register("ESU6", 1)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
				i++
				pub.Publish(ev(i))
			}
		}
	}()

	var churnWG sync.WaitGroup
	for w := 0; w < 8; w++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for i := 0; i < 200; i++ {
				sub, err := g.Subscribe("ESU6")
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case <-sub.C():
				default:
				}
				sub.Close()
			}
		}()
	}
	churnWG.Wait()
	close(stop)
	pubWG.Wait()

	if n := g.Stats().Subscribers; n != 0 {
		t.Fatalf("live subscribers after churn = %d, want 0", n)
	}
	g.Close()
	leak.Verify(t, 5*time.Second)
}

// TestPublishZeroAllocIdle is the CI allocation gate for the lane-side
// hook: with no subscribers anywhere, Publish must be allocation-free
// (it is the fast path added to every tick).
func TestPublishZeroAllocIdle(t *testing.T) {
	g := testGateway(t, Config{Shards: 8})
	pub, err := g.Register("ESU6", 1)
	if err != nil {
		t.Fatal(err)
	}
	e := ev(1)
	if allocs := testing.AllocsPerRun(1000, func() { pub.Publish(e) }); allocs != 0 {
		t.Fatalf("idle Publish allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestPublishZeroAllocActive gates the active path too: with a live (but
// stalled) subscriber, Publish still must not allocate — the copy goes
// into the pre-allocated conflation slot.
func TestPublishZeroAllocActive(t *testing.T) {
	g := testGateway(t, Config{Shards: 8})
	pub, err := g.Register("ESU6", 1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := g.Subscribe("ESU6")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	e := ev(1)
	if allocs := testing.AllocsPerRun(1000, func() { pub.Publish(e) }); allocs != 0 {
		t.Fatalf("active Publish allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestRegistrationErrors covers the registration/subscription error space.
func TestRegistrationErrors(t *testing.T) {
	g := testGateway(t, Config{Shards: 2})
	if _, err := g.Register("ESU6", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Register("ESU6", 1); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
	if _, err := g.Subscribe("NOPE"); err == nil {
		t.Fatal("Subscribe to unknown symbol succeeded")
	}
	g.Close()
	if _, err := g.Register("NQU6", 2); err != ErrClosed {
		t.Fatalf("Register on closed gateway = %v, want ErrClosed", err)
	}
	if _, err := g.Subscribe("ESU6"); err != ErrClosed {
		t.Fatalf("Subscribe on closed gateway = %v, want ErrClosed", err)
	}
}

// TestSymbolStats verifies the per-symbol accounting and its sort order.
func TestSymbolStats(t *testing.T) {
	g := testGateway(t, Config{Shards: 2})
	pubB, _ := g.Register("NQU6", 2)
	pubA, _ := g.Register("ESU6", 1)
	subA, err := g.Subscribe("ESU6")
	if err != nil {
		t.Fatal(err)
	}
	defer subA.Close()
	for i := 1; i <= 3; i++ {
		pubA.Publish(ev(i))
	}
	pubB.Publish(ev(1))
	g.Drain()

	st := g.SymbolStats()
	if len(st) != 2 || st[0].Symbol != "ESU6" || st[1].Symbol != "NQU6" {
		t.Fatalf("SymbolStats order %+v", st)
	}
	if st[0].Published != 3 || st[0].Subscribers != 1 {
		t.Fatalf("ESU6 counters %+v", st[0])
	}
	if st[1].Published != 1 || st[1].Subscribers != 0 {
		t.Fatalf("NQU6 counters %+v", st[1])
	}
}
