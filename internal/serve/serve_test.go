package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/sbe"
	"lighttrader/internal/sim"
	"lighttrader/internal/trading"
)

// buildMarket lists one security per symbol on a fresh matching engine,
// submits events interleaved order flow per instrument, and returns the
// published packet stream (the shared feed every runtime under test replays).
func buildMarket(t *testing.T, syms []string, events int) [][]byte {
	t.Helper()
	var clock int64
	var packets [][]byte
	eng := exchange.New(func() int64 { clock++; return clock }, func(buf []byte) {
		cp := make([]byte, len(buf))
		copy(cp, buf)
		packets = append(packets, cp)
	})
	for i, sym := range syms {
		eng.ListSecurity(int32(i+1), sym)
	}
	id := uint64(100)
	for i := 0; i < events; i++ {
		for s := range syms {
			sec := int32(s + 1)
			id++
			eng.Submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: sec, ClOrdID: id,
				Side: lob.Side(i % 2), Price: int64(100000*int(sec) + i%5 - 2 + 10*(i%2)), Qty: 3})
		}
	}
	return packets
}

// buildMulti subscribes every symbol with an identically-seeded model so
// independently built runtimes are weight-for-weight comparable.
func buildMulti(t *testing.T, syms []string) *core.MultiPipeline {
	t.Helper()
	mp := core.NewMultiPipeline()
	for i, sym := range syms {
		sec := int32(i + 1)
		tcfg := trading.DefaultConfig(sec)
		tcfg.MinConfidence = 0 // act on every directional signal
		if err := mp.Add(sym, sec, nn.NewSizedCNN("tiny-"+sym, 8, 0),
			offload.Normalizer{}, tcfg); err != nil {
			t.Fatal(err)
		}
	}
	return mp
}

// serialDispatch is the reference the lane-parity tests hold the runtime to:
// one packet handed to every subscription in subscription order on the
// caller's goroutine, the generated orders concatenated.
func serialDispatch(pipes []*core.Pipeline, buf []byte) ([]exchange.Request, error) {
	pkt, err := sbe.DecodePacket(buf)
	if err != nil {
		return nil, err
	}
	var orders []exchange.Request
	for _, p := range pipes {
		reqs, err := p.OnDecodedPacket(pkt)
		if err != nil {
			return orders, err
		}
		orders = append(orders, reqs...)
	}
	return orders, nil
}

// serialRun replays the packets through mp's pipelines on the serial
// reference and returns per-security order streams, quiesce-time books and
// inference counts.
func serialRun(t testing.TB, mp *core.MultiPipeline, packets [][]byte) (map[int32][]exchange.Request, map[int32]lob.Snapshot, map[int32]int) {
	t.Helper()
	orders := make(map[int32][]exchange.Request)
	for _, buf := range packets {
		reqs, err := serialDispatch(mp.Pipelines(), buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			orders[r.SecurityID] = append(orders[r.SecurityID], r)
		}
	}
	books := make(map[int32]lob.Snapshot)
	infs := make(map[int32]int)
	for _, p := range mp.Pipelines() {
		books[p.SecurityID()] = p.Snapshot(0)
		infs[p.SecurityID()] = p.Inferences()
	}
	return orders, books, infs
}

// runServer feeds the packet stream to a fresh Server over mp (started when
// lanes > 0), drains, stops, and returns it with its order log.
func runServer(t testing.TB, mp *core.MultiPipeline, packets [][]byte, cfg Config) (*Server, *OrderLog) {
	t.Helper()
	log := NewOrderLog()
	cfg.OnOrders = log.Sink()
	srv, err := New(mp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.Run(ctx); err != context.Canceled {
			t.Errorf("Run = %v, want context.Canceled", err)
		}
	}()
	for i, buf := range packets {
		if err := srv.Submit(int64(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	cancel()
	wg.Wait()
	return srv, log
}

// TestServeParityAcrossLanes is the determinism-at-quiesce contract: K
// instruments over one shared feed produce identical per-symbol books,
// inference counts and order streams whether run through the serial
// reference or the runtime at any lane count, with and without online
// Algorithm-1 admission.
func TestServeParityAcrossLanes(t *testing.T) {
	syms := []string{"ESU6", "NQU6", "YMU6", "RTYU6"}
	packets := buildMarket(t, syms, nn.Window+40)
	wantOrders, wantBooks, wantInfs := serialRun(t, buildMulti(t, syms), packets)
	var total int
	for _, reqs := range wantOrders {
		total += len(reqs)
	}
	if total == 0 {
		t.Fatal("serial baseline generated no orders; parity would be vacuous")
	}

	syscfg, err := core.Configure(nn.NewSizedCNN("sched-ref", 8, 0), len(syms),
		core.Sufficient, core.Options{WorkloadScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	lossless := len(packets) + 1 // a queue no replay fills: nothing is evicted
	cases := []struct {
		name string
		cfg  Config
	}{
		{"inline", Config{Lanes: 0}},
		{"lanes=1", Config{Lanes: 1, MaxQueue: lossless}},
		{"lanes=2", Config{Lanes: 2, MaxQueue: lossless}},
		{"lanes=4", Config{Lanes: 4, MaxQueue: lossless}},
		{"lanes=2+sched", Config{Lanes: 2, MaxQueue: lossless, Sched: &syscfg.Sched, TAvailNanos: 1 << 40}},
		{"lanes=4+sched", Config{Lanes: 4, MaxQueue: lossless, Sched: &syscfg.Sched, TAvailNanos: 1 << 40}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, log := runServer(t, buildMulti(t, syms), packets, c.cfg)
			st := srv.Stats()
			if st.Submitted != len(packets) {
				t.Fatalf("Submitted = %d, want %d", st.Submitted, len(packets))
			}
			if st.Served != st.Submitted || st.Dropped() != 0 || st.Late != 0 {
				t.Fatalf("not every query served: %+v", st)
			}
			if st.ResponseRate != 1 {
				t.Fatalf("response rate = %v", st.ResponseRate)
			}
			if st.Errors != 0 {
				t.Fatalf("pipeline errors: %d", st.Errors)
			}
			if c.cfg.Sched != nil && (st.Batches == 0 || st.MeanBatch < 1) {
				t.Fatalf("admission ran but batch stats empty: %+v", st)
			}
			if st.Orders != log.Total() {
				t.Fatalf("Stats.Orders = %d, log holds %d", st.Orders, log.Total())
			}
			for i := range syms {
				sec := int32(i + 1)
				got, ok := srv.Snapshot(sec, 0)
				if !ok {
					t.Fatalf("no snapshot for security %d", sec)
				}
				want := wantBooks[sec]
				if got.Bids != want.Bids || got.Asks != want.Asks {
					t.Fatalf("security %d book diverged from serial:\nserial %+v\nserve  %+v",
						sec, want, got)
				}
				if n := srv.Inferences(sec); n != wantInfs[sec] {
					t.Fatalf("security %d inferences = %d, serial ran %d", sec, n, wantInfs[sec])
				}
				if !reflect.DeepEqual(log.Orders(sec), append([]exchange.Request{}, wantOrders[sec]...)) {
					t.Fatalf("security %d order stream diverged from serial:\nserial %+v\nserve  %+v",
						sec, wantOrders[sec], log.Orders(sec))
				}
			}
		})
	}
}

// TestServeExecReportRoutesBySecurity checks exec routing: a fill on one
// instrument reaches that instrument's trading engine and no other, and a
// report for an instrument nobody serves is dropped.
func TestServeExecReportRoutesBySecurity(t *testing.T) {
	mp := buildMulti(t, []string{"ESU6", "NQU6"})
	srv, err := New(mp, Config{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.OnExecReport(exchange.ExecReport{Exec: exchange.ExecFilled, SecurityID: 2,
		ClOrdID: 999, Side: lob.Bid, Price: 200000, Qty: 1})
	srv.OnExecReport(exchange.ExecReport{Exec: exchange.ExecFilled, SecurityID: 3,
		ClOrdID: 999, Side: lob.Bid, Price: 200000, Qty: 1})
	p1, p2 := mp.Pipelines()[0], mp.Pipelines()[1] // securities 1 and 2
	if p1.Trader().Position() != 0 || p2.Trader().Position() != 1 {
		t.Fatalf("positions: ES %d NQ %d, want 0 and 1", p1.Trader().Position(), p2.Trader().Position())
	}
}

// TestServeInlineDeliversBeforeSubmitReturns checks the degenerate
// configuration: when an inline SubmitPacket returns, that packet's orders
// have already reached the sink, and per packet they equal what the serial
// reference returns synchronously.
func TestServeInlineDeliversBeforeSubmitReturns(t *testing.T) {
	syms := []string{"ESU6", "NQU6"}
	packets := buildMarket(t, syms, nn.Window+30)

	serial := buildMulti(t, syms).Pipelines()
	var got []exchange.Request
	srv, err := New(buildMulti(t, syms), Config{Lanes: 0,
		OnOrders: func(_ int32, reqs []exchange.Request) { got = append(got, reqs...) }})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, buf := range packets {
		pkt, err := sbe.DecodePacket(buf)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serialDispatch(serial, buf)
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		srv.SubmitPacket(srv.ArrivalNanos(pkt), pkt)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("inline orders diverged:\nserial %+v\nserve  %+v", want, got)
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("serial baseline generated no orders; the comparison is vacuous")
	}
	if st := srv.Stats(); st.Served != st.Submitted || st.Submitted != len(packets) || st.Orders != total {
		t.Fatalf("inline stats inconsistent (%d orders expected): %+v", total, st)
	}
}

// TestSubmitPacketBorrowsPacket pins the packet-lifetime contract: the
// caller may overwrite the packet's decode storage the moment SubmitPacket
// returns (as the feed arbiter does), so a runtime that queues packets past
// the call must own a copy — and one that does not must not pay for it.
func TestSubmitPacketBorrowsPacket(t *testing.T) {
	syms := []string{"ESU6", "NQU6", "YMU6"}
	packets := buildMarket(t, syms, nn.Window+40)
	wantOrders, _, _ := serialRun(t, buildMulti(t, syms), packets)

	log := NewOrderLog()
	srv, err := New(buildMulti(t, syms), Config{Lanes: 2, MaxQueue: len(packets) + 1, OnOrders: log.Sink()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Run(ctx) }()
	var pb sbe.PacketBuffer
	for i, buf := range packets {
		pkt, err := sbe.DecodePacketInto(buf, &pb)
		if err != nil {
			t.Fatal(err)
		}
		srv.SubmitPacket(int64(i), pkt)
		// Scribble over the storage pkt aliases while the lanes still hold it.
		if _, err := sbe.DecodePacketInto(packets[(i+len(packets)/2)%len(packets)], &pb); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	cancel()
	<-done
	for i := range syms {
		sec := int32(i + 1)
		if len(wantOrders[sec]) == 0 {
			t.Fatalf("security %d: serial baseline generated no orders", sec)
		}
		if !reflect.DeepEqual(log.Orders(sec), wantOrders[sec]) {
			t.Fatalf("security %d order stream diverged from serial after the caller reused its buffer", sec)
		}
	}

	// What the contract costs: inline the packet is dispatched before the
	// call returns and nothing is copied; a queue that keeps it copies it into
	// lane-owned storage, which a warm lane has — nothing is allocated per
	// packet on either side. The queueing server here is never run, so its
	// full queue evicts one query per submit and reuses that query's buffer.
	served, err := sbe.DecodePacket(packets[len(packets)-1])
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{Lanes: 0}, {Lanes: 1, MaxQueue: 8}} {
		rt, err := New(buildMulti(t, syms), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*8; i++ {
			rt.SubmitPacket(int64(i), served)
		}
		if n := testing.AllocsPerRun(50, func() { rt.SubmitPacket(100, served) }); n != 0 {
			t.Fatalf("lanes=%d: SubmitPacket allocates %.0f times per call once warm, want 0", cfg.Lanes, n)
		}
		if st := rt.Stats(); st.Submitted < 4*8+50 || (cfg.Lanes > 0 && st.EvictedQueueFull == 0) {
			t.Fatalf("lanes=%d: the measured submits did not queue: %+v", cfg.Lanes, st)
		}
		var bufs int
		for _, l := range rt.lanes {
			bufs += len(l.free)
			for _, q := range l.queue {
				if q.buf != nil {
					bufs++
				}
			}
		}
		if want := cfg.Lanes * 8; bufs != want {
			t.Fatalf("lanes=%d: %d packet buffers owned, want %d (the queue's high-water mark)", cfg.Lanes, bufs, want)
		}
	}
}

// countProbe tallies runtime probe events (lockedProbe serialises delivery).
type countProbe struct {
	arrive, issue, complete, evict, deferred, samples int
	causes                                            map[sim.DeferCause]int
}

func (c *countProbe) OnQueryEvent(e sim.QueryEvent) {
	switch e.Kind {
	case sim.QueryArrive:
		c.arrive++
	case sim.QueryIssue:
		c.issue++
	case sim.QueryComplete:
		c.complete++
	case sim.QueryEvict:
		c.evict++
	case sim.QueryDefer:
		c.deferred++
		if c.causes == nil {
			c.causes = make(map[sim.DeferCause]int)
		}
		c.causes[e.Cause]++
	}
}
func (c *countProbe) OnDVFSEvent(sim.DVFSEvent) {}
func (c *countProbe) OnSample(sim.Sample)       { c.samples++ }

// TestServeAdmissionDropsDeadline forces every query deadline-infeasible: a
// 1 ns budget is below the latency-table floor, so online Algorithm 1 must
// drop everything with deadline attribution and matching probe events.
func TestServeAdmissionDropsDeadline(t *testing.T) {
	syms := []string{"ESU6", "NQU6"}
	packets := buildMarket(t, syms, 40)
	syscfg, err := core.Configure(nn.NewSizedCNN("sched-dl", 8, 0), 1,
		core.Sufficient, core.Options{WorkloadScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	if syscfg.Sched.TotalNanos(syscfg.Sched.StaticDVFS, 1) <= 1 {
		t.Fatal("latency floor too low for the test premise")
	}
	probe := &countProbe{}
	srv, err := New(buildMulti(t, syms), Config{Sched: &syscfg.Sched, TAvailNanos: 1, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range packets {
		if err := srv.Submit(int64(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Submitted != len(packets) || st.DeferredDeadline != len(packets) {
		t.Fatalf("expected every query deadline-dropped: %+v", st)
	}
	if st.Served != 0 || st.DeferredPower != 0 || st.ResponseRate != 0 {
		t.Fatalf("stats leak: %+v", st)
	}
	if probe.arrive != len(packets) || probe.deferred != len(packets) ||
		probe.causes[sim.CauseDeadline] != len(packets) {
		t.Fatalf("probe disagreed: %+v", probe)
	}
	if probe.complete != 0 || probe.issue != 0 {
		t.Fatalf("dropped queries completed: %+v", probe)
	}
}

// TestServeAdmissionDropsPower starves the shared budget: deadline-feasible
// candidates exist (no deadline at all) but power blocks every issue. The
// budget is a positive sliver (zero is rejected at construction) far below
// any operating point's busy power.
func TestServeAdmissionDropsPower(t *testing.T) {
	syms := []string{"ESU6"}
	packets := buildMarket(t, syms, 40)
	syscfg, err := core.Configure(nn.NewSizedCNN("sched-pw", 8, 0), 1,
		core.Sufficient, core.Options{WorkloadScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	starved := syscfg.Sched
	starved.PowerBudgetWatts = 0.001
	probe := &countProbe{}
	srv, err := New(buildMulti(t, syms), Config{Sched: &starved, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range packets {
		if err := srv.Submit(int64(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.DeferredPower != st.Submitted || st.Submitted == 0 {
		t.Fatalf("expected every query power-dropped: %+v", st)
	}
	if probe.causes[sim.CausePower] != st.Submitted {
		t.Fatalf("probe causes = %v", probe.causes)
	}
}

// TestServeBoundedQueueEvicts fills an unserviced lane past MaxQueue: the
// oldest query is pushed out (stale-tensor management) and accounted.
func TestServeBoundedQueueEvicts(t *testing.T) {
	syms := []string{"ESU6"}
	packets := buildMarket(t, syms, 5)
	probe := &countProbe{}
	// Lanes: 1 without Run: arrivals queue but nothing dispatches.
	srv, err := New(buildMulti(t, syms), Config{Lanes: 1, MaxQueue: 2, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range packets[:3] {
		if err := srv.Submit(int64(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Submitted != 3 || st.EvictedQueueFull != 1 {
		t.Fatalf("expected one eviction: %+v", st)
	}
	if probe.evict != 1 || probe.arrive != 3 {
		t.Fatalf("probe disagreed: %+v", probe)
	}
}

// TestServeChaosConcurrentReads hammers Snapshot, Inferences, Stats and
// OnExecReport from many goroutines while the lanes serve a live feed; run
// under -race this is the data-race gate, and at quiesce the books must
// still match the serial replay exactly.
func TestServeChaosConcurrentReads(t *testing.T) {
	syms := []string{"ESU6", "NQU6", "YMU6", "RTYU6"}
	packets := buildMarket(t, syms, nn.Window+20)
	_, wantBooks, _ := serialRun(t, buildMulti(t, syms), packets)

	log := NewOrderLog()
	srv, err := New(buildMulti(t, syms), Config{Lanes: len(syms), MaxQueue: len(packets) + 1, OnOrders: log.Sink()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var runWG sync.WaitGroup
	runWG.Add(1)
	go func() {
		defer runWG.Done()
		srv.Run(ctx)
	}()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			sec := int32(g%len(syms) + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				srv.Snapshot(sec, 0)
				srv.Inferences(sec)
				srv.Stats()
				srv.OnExecReport(exchange.ExecReport{Exec: exchange.ExecAccepted, SecurityID: sec})
			}
		}(g)
	}
	for i, buf := range packets {
		if err := srv.Submit(int64(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	close(stop)
	readers.Wait()
	cancel()
	runWG.Wait()

	st := srv.Stats()
	if st.Served+st.Late+st.Dropped() != st.Submitted {
		t.Fatalf("accounting leak: %+v", st)
	}
	if st.Served != len(packets) {
		t.Fatalf("served %d of %d", st.Served, len(packets))
	}
	for i := range syms {
		sec := int32(i + 1)
		got, _ := srv.Snapshot(sec, 0)
		want := wantBooks[sec]
		if got.Bids != want.Bids || got.Asks != want.Asks {
			t.Fatalf("security %d book diverged under chaos", sec)
		}
	}
}

// TestServeModelledThroughputScaling measures the modelled serving makespan
// (max per-lane Σ t_total from the latency tables) of one 8-instrument
// replay at 1 lane vs 8 lanes. Queues are pre-filled before the workers
// start, so batch decisions — and therefore the modelled times — are
// deterministic. The lane fleet must cut the makespan at least 2x.
func TestServeModelledThroughputScaling(t *testing.T) {
	syms := []string{"ESU6", "NQU6", "YMU6", "RTYU6", "CLU6", "GCU6", "SIU6", "HGU6"}
	packets := buildMarket(t, syms, 60)
	syscfg, err := core.Configure(nn.NewSizedCNN("sched-tp", 8, 0), len(syms),
		core.Sufficient, core.Options{WorkloadScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	makespan := func(lanes int) int64 {
		srv, err := New(buildMulti(t, syms), Config{
			Lanes: lanes, MaxQueue: len(packets) + 1,
			Sched: &syscfg.Sched, TAvailNanos: 1 << 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, buf := range packets {
			if err := srv.Submit(int64(i), buf); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Run(ctx)
		}()
		srv.Drain()
		cancel()
		wg.Wait()
		if st := srv.Stats(); st.Served != len(packets) {
			t.Fatalf("lanes=%d served %d of %d: %+v", lanes, st.Served, len(packets), st)
		}
		var max int64
		for _, n := range srv.ModelledBusyNanos() {
			if n > max {
				max = n
			}
		}
		return max
	}
	serial := makespan(1)
	fleet := makespan(len(syms))
	if serial == 0 || fleet == 0 {
		t.Fatalf("no modelled time accumulated: serial %d fleet %d", serial, fleet)
	}
	speedup := float64(serial) / float64(fleet)
	t.Logf("modelled makespan: 1 lane %.3f ms, %d lanes %.3f ms, speedup %.2fx",
		float64(serial)/1e6, len(syms), float64(fleet)/1e6, speedup)
	if speedup < 2 {
		t.Fatalf("modelled speedup %.2fx < 2x", speedup)
	}
}

// TestServeModelledClockImpliesInline: the modelled clock dispatches on the
// submitter's goroutine at every lane count, so a four-lane replay without
// Inline is the inline replay — the same Stats and per-symbol order logs —
// and needs no Run.
func TestServeModelledClockImpliesInline(t *testing.T) {
	syms := []string{"ESU6", "NQU6", "YMU6", "RTYU6"}
	packets := buildMarket(t, syms, nn.Window+120)
	syscfg, err := core.Configure(nn.NewDeepLOB(), len(syms), core.Limited,
		core.Options{WorkloadScheduling: true, DVFSScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	syscfg.Sched.PowerBudgetWatts = 6 // lanes contend for the envelope
	run := func(inline bool) (Stats, *OrderLog) {
		log := NewOrderLog()
		srv, err := New(buildMulti(t, syms), Config{
			Lanes: len(syms), Inline: inline, ModelledClock: true, MaxQueue: 16,
			Sched: &syscfg.Sched, TAvailNanos: 5_000_000,
			PrePipelineNanos: core.DefaultPrePipelineNanos, OnOrders: log.Sink(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !srv.Inline() {
			t.Fatalf("Inline=%v: the modelled clock runs worker lanes", inline)
		}
		for i, buf := range packets {
			if err := srv.Submit(int64(i)*200_000, buf); err != nil {
				t.Fatal(err)
			}
		}
		srv.Drain()
		return srv.Stats(), log
	}
	want, wantLog := run(true)
	got, gotLog := run(false)
	if want.Served == 0 || wantLog.Total() == 0 || want.DVFSRedistributes == 0 {
		t.Fatalf("the replay is vacuous: %+v, %d orders", want, wantLog.Total())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stats differ:\ninline %+v\nlanes  %+v", want, got)
	}
	if !reflect.DeepEqual(gotLog.bySec, wantLog.bySec) {
		t.Error("per-symbol order logs differ from the inline replay")
	}
}

// TestServeDropWakesDrain pins the drop-path wakeup: when online Algorithm 1
// drains a lane's whole backlog by dropping infeasible queries, the drops
// must wake a Drain waiter — without the broadcast the worker parks in Wait
// with the queue empty while Drain sleeps forever.
func TestServeDropWakesDrain(t *testing.T) {
	syms := []string{"ESU6"}
	packets := buildMarket(t, syms, 40)
	syscfg, err := core.Configure(nn.NewSizedCNN("sched-drop", 8, 0), 1,
		core.Sufficient, core.Options{WorkloadScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	if syscfg.Sched.TotalNanos(syscfg.Sched.StaticDVFS, 1) <= 1 {
		t.Fatal("latency floor too low for the test premise")
	}
	srv, err := New(buildMulti(t, syms), Config{
		Lanes: 1, MaxQueue: 2,
		Sched: &syscfg.Sched, TAvailNanos: 1, // every query deadline-infeasible
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Run(ctx)
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, buf := range packets {
			if err := srv.Submit(int64(i), buf); err != nil {
				t.Error(err)
				return
			}
		}
		srv.Drain()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain never woken by the drop path")
	}
	cancel()
	wg.Wait()
	st := srv.Stats()
	if st.Submitted != len(packets) || st.DeferredDeadline+st.EvictedQueueFull != len(packets) {
		t.Fatalf("expected every query dropped: %+v", st)
	}
}

// TestServeArrivalNanos pins the submission clock submitters without an
// arrival source must share: transact time for incrementals, zero (not wall
// time) for packets that carry none, the configured clock when present.
func TestServeArrivalNanos(t *testing.T) {
	syms := []string{"ESU6"}
	packets := buildMarket(t, syms, 3)
	srv, err := New(buildMulti(t, syms), Config{})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := sbe.DecodePacket(packets[0])
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, msg := range pkt.Messages {
		if msg.Incremental != nil {
			want = int64(msg.Incremental.TransactTime)
			break
		}
	}
	if want == 0 {
		t.Fatal("first packet carries no transact time; premise broken")
	}
	if got := srv.ArrivalNanos(pkt); got != want {
		t.Fatalf("ArrivalNanos = %d, want transact time %d", got, want)
	}
	// No incremental: a wall-clock fallback here would ratchet the logical
	// clock ahead of trace time; the stamp must be 0.
	if got := srv.ArrivalNanos(sbe.Packet{}); got != 0 {
		t.Fatalf("ArrivalNanos(empty) = %d, want 0", got)
	}
	clocked, err := New(buildMulti(t, syms), Config{Clock: func() int64 { return 42 }})
	if err != nil {
		t.Fatal(err)
	}
	if got := clocked.ArrivalNanos(sbe.Packet{}); got != 42 {
		t.Fatalf("ArrivalNanos under Clock = %d, want 42", got)
	}
}

// TestServeLifecycle covers constructor validation and the one-shot Run
// contract.
func TestServeLifecycle(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil multi accepted")
	}
	if _, err := New(core.NewMultiPipeline(), Config{}); err == nil {
		t.Fatal("empty multi accepted")
	}
	syms := []string{"ESU6", "NQU6"}
	if _, err := New(buildMulti(t, syms), Config{Lanes: -1}); err == nil {
		t.Fatal("negative lanes accepted")
	}
	// A negative queue bound would make enqueue's eviction branch index an
	// empty queue.
	if _, err := New(buildMulti(t, syms), Config{MaxQueue: -1}); err == nil {
		t.Fatal("negative queue bound accepted")
	}
	srv, err := New(buildMulti(t, syms), Config{Lanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Lanes() != len(syms) {
		t.Fatalf("lanes = %d, want capped at %d subscriptions", srv.Lanes(), len(syms))
	}
	if srv.Inline() {
		t.Fatal("concurrent server reported inline")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Run(ctx); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	// A Server runs at most once: a second Run must refuse.
	if err := srv.Run(context.Background()); err == nil {
		t.Fatal("stopped server restarted")
	}
}
