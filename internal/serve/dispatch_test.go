package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/sbe"
	"lighttrader/internal/sim"
)

// seededMarket is buildMarket with a seeded random order flow, and with every
// ninth datagram carrying the next one's messages as well — packets that
// touch two instruments and so queue on two lanes.
func seededMarket(t *testing.T, syms []string, events int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var clock int64
	var packets [][]byte
	eng := exchange.New(func() int64 { clock++; return clock }, func(buf []byte) {
		packets = append(packets, append([]byte(nil), buf...))
	})
	for i, sym := range syms {
		eng.ListSecurity(int32(i+1), sym)
	}
	for id := uint64(100); len(packets) < events*len(syms); id++ {
		sec := int32(rng.Intn(len(syms)) + 1)
		side := lob.Side(rng.Intn(2))
		eng.Submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: id, Side: side,
			Price: int64(100000*int(sec)) + int64(rng.Intn(5)-2) + 10*int64(side), Qty: int64(rng.Intn(4) + 1)})
	}
	var out [][]byte
	for i := 0; i < len(packets); i++ {
		if i%9 != 0 || i+1 == len(packets) {
			out = append(out, packets[i])
			continue
		}
		a, err := sbe.DecodePacket(packets[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := sbe.DecodePacket(packets[i+1])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sbe.AppendPacket(nil, a.SeqNum, a.SendingTime, append(a.Messages, b.Messages...)))
		i++
	}
	return out
}

// dispatchProbe records, per lane, the size of every dispatch in issue order.
type dispatchProbe struct {
	sizes map[int][]int // lane → batch sizes
	left  map[int]int   // lane → issue events still to come for its current batch
}

func (p *dispatchProbe) OnQueryEvent(e sim.QueryEvent) {
	if e.Kind != sim.QueryIssue {
		return
	}
	if p.left[e.Accel] == 0 {
		p.sizes[e.Accel] = append(p.sizes[e.Accel], e.Batch)
		p.left[e.Accel] = e.Batch
	}
	p.left[e.Accel]--
}
func (p *dispatchProbe) OnDVFSEvent(sim.DVFSEvent) {}
func (p *dispatchProbe) OnSample(sim.Sample)       {}

// wireBytes is an order stream as it would cross the order-entry session.
func wireBytes(reqs []exchange.Request) []byte {
	var out []byte
	for _, r := range reqs {
		out = orderentry.AppendRequest(out, r)
	}
	return out
}

// TestDispatchSizeEquivalence is the differential behind "the dispatch is
// the unit of egress": one seeded multi-instrument stream, served with every
// dispatch forced to one packet (inline) and with dispatches of many packets
// — the whole stream queued before the lanes are released, with and without
// a Sched batch ladder cutting it up — at 1, 2 and 4 lanes. Each instrument's
// order stream must be byte-identical on the wire, the fate counters equal,
// and the sink must have been called once per dispatch per instrument that
// had orders in it, not once per packet.
func TestDispatchSizeEquivalence(t *testing.T) {
	syms := []string{"ESU6", "NQU6", "YMU6", "RTYU6"}
	packets := seededMarket(t, syms, nn.Window+30, 24)

	// The reference, and which packets gave which instrument orders.
	ref := buildMulti(t, syms)
	want := map[int32][]exchange.Request{}
	gave := make([]map[int32]bool, len(packets)) // packet → instruments it drew orders from
	touches := make([][]int32, len(packets))     // packet → instruments it names
	for k, buf := range packets {
		reqs, err := serialDispatch(ref.Pipelines(), buf)
		if err != nil {
			t.Fatal(err)
		}
		gave[k] = map[int32]bool{}
		for _, r := range reqs {
			want[r.SecurityID] = append(want[r.SecurityID], r)
			gave[k][r.SecurityID] = true
		}
		pkt, _ := sbe.DecodePacket(buf)
		for _, m := range pkt.Messages {
			if m.Incremental == nil {
				t.Fatalf("packet %d carries a trade or a snapshot; the flow was built never to cross", k)
			}
			for _, e := range m.Incremental.Entries {
				touches[k] = append(touches[k], e.SecurityID)
			}
		}
	}
	for i := range syms {
		if len(want[int32(i+1)]) == 0 {
			t.Fatalf("reference generated no orders for security %d; the comparison would be vacuous", i+1)
		}
	}

	type fates struct{ submitted, served, late, dropped, orders, errors int }
	run := func(t *testing.T, cfg Config, prefill bool) (fates, Stats, int, *dispatchProbe) {
		t.Helper()
		probe := &dispatchProbe{sizes: map[int][]int{}, left: map[int]int{}}
		log := NewOrderLog()
		var mu sync.Mutex
		calls := 0
		cfg.Probe = probe
		cfg.MaxQueue = len(packets) + 1
		record := log.Sink()
		cfg.OnOrders = func(sec int32, reqs []exchange.Request) {
			mu.Lock()
			calls++
			mu.Unlock()
			record(sec, reqs)
		}
		srv, err := New(buildMulti(t, syms), cfg)
		if err != nil {
			t.Fatal(err)
		}
		submit := func() {
			for i, buf := range packets {
				if err := srv.Submit(int64(i), buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		if prefill {
			submit() // no lane is running: the whole stream queues
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Run(ctx) }()
		if !prefill {
			submit()
		}
		srv.Drain()
		cancel()
		<-done
		for i := range syms {
			sec := int32(i + 1)
			if got := log.Orders(sec); !bytes.Equal(wireBytes(got), wireBytes(want[sec])) {
				t.Fatalf("security %d: order stream differs from the one-packet-per-dispatch reference (%d vs %d orders)",
					sec, len(got), len(want[sec]))
			}
		}
		st := srv.Stats()
		return fates{st.Submitted, st.Served, st.Late, st.Dropped(), st.Orders, st.Errors}, st, calls, probe
	}
	// expectCalls walks each lane's dispatches over the packets routed to it
	// and counts the instruments with orders in each.
	expectCalls := func(lanes int, probe *dispatchProbe) (calls, dispatches int) {
		for lane := 0; lane < lanes; lane++ {
			var routed []int // packets queued on this lane, in order
			for k := range packets {
				for _, sec := range touches[k] {
					if int(sec-1)%lanes == lane {
						routed = append(routed, k)
						break
					}
				}
			}
			at := 0
			for _, size := range probe.sizes[lane] {
				with := map[int32]bool{}
				for _, k := range routed[at : at+size] {
					for sec := range gave[k] {
						if int(sec-1)%lanes == lane {
							with[sec] = true
						}
					}
				}
				calls += len(with)
				at += size
				dispatches++
			}
			if at != len(routed) {
				t.Fatalf("lane %d dispatched %d of the %d packets routed to it", lane, at, len(routed))
			}
		}
		return calls, dispatches
	}

	one, _, oneCalls, oneProbe := run(t, Config{Lanes: 0}, false)
	if want, n := expectCalls(1, oneProbe); oneCalls != want || n != len(packets) {
		t.Fatalf("inline: %d sink calls over %d dispatches, want %d over %d (one packet each)", oneCalls, n, want, len(packets))
	}

	for _, lanes := range []int{1, 2, 4} {
		syscfg, err := core.Configure(nn.NewSizedCNN("sched-ref", 8, 0), lanes,
			core.Sufficient, core.Options{WorkloadScheduling: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"backlog", Config{Lanes: lanes}},
			{"ladder", Config{Lanes: lanes, Sched: &syscfg.Sched, TAvailNanos: 1 << 40}},
		} {
			t.Run(fmt.Sprintf("lanes=%d/%s", lanes, c.name), func(t *testing.T) {
				got, st, calls, probe := run(t, c.cfg, true)
				// A packet naming instruments on two lanes is one query on each.
				if lanes == 1 && got != one {
					t.Fatalf("fates %+v differ from the one-packet-per-dispatch run's %+v", got, one)
				}
				if got.served != got.submitted || got.orders != one.orders || got.errors != 0 {
					t.Fatalf("fates %+v: want everything served and %d orders", got, one.orders)
				}
				wantCalls, dispatches := expectCalls(lanes, probe)
				if dispatches != st.Batches || dispatches >= got.submitted {
					t.Fatalf("%d dispatches probed, Stats counts %d, for %d queries: dispatches did not batch", dispatches, st.Batches, got.submitted)
				}
				if c.cfg.Sched == nil && dispatches != lanes {
					t.Fatalf("%d dispatches, want the whole backlog in one per lane", dispatches)
				}
				if calls != wantCalls {
					t.Fatalf("%d sink calls over %d dispatches, want %d (one per dispatch per instrument with orders)", calls, dispatches, wantCalls)
				}
				if calls >= oneCalls {
					t.Fatalf("%d sink calls, no fewer than the %d of one packet per dispatch", calls, oneCalls)
				}
			})
		}
	}
}
