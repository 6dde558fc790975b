package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/sbe"
)

// bareServer builds a Server skeleton around one directly-drivable lane, so
// queue-mechanics tests can single-step enqueue/take/process without market
// data or worker goroutines.
func bareServer(t *testing.T, cfg Config) (*Server, *lane) {
	t.Helper()
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	srv := &Server{cfg: cfg, stats: &stats{}, probe: newLockedProbe(cfg.Probe)}
	srv.gov = newGovernor(srv, cfg.Sched, 1)
	l := newLane(0, srv)
	srv.lanes = []*lane{l}
	return srv, l
}

// mkQuery returns a query whose packet carries its id, so a copy can be told
// from any other query's.
func mkQuery(id, arrival, deadline int64) query {
	return query{
		id:       id,
		pkt:      sbe.Packet{SeqNum: uint32(id), Messages: []sbe.Message{{Trade: &sbe.TradeSummary{Price: id}}}},
		arrival:  arrival,
		deadline: deadline,
	}
}

// intact reports whether q still reads as mkQuery built it.
func intact(q query) bool {
	return q.pkt.SeqNum == uint32(q.id) && len(q.pkt.Messages) == 1 &&
		q.pkt.Messages[0].Trade != nil && q.pkt.Messages[0].Trade.Price == q.id
}

// TestQueueSlotsReleasedOnVacate pins who owns a queued packet's storage. A
// lane that keeps packets past the submit call (worker lanes here) copies
// each into a buffer of its own, and an evicted, issued or dropped query
// gives that buffer back for the next enqueue — so the lane allocates as
// many as were ever live at once, never one per packet and never MaxQueue up
// front — while a batch still in flight keeps its packets whatever is
// enqueued behind it.
func TestQueueSlotsReleasedOnVacate(t *testing.T) {
	t.Run("evict", func(t *testing.T) {
		_, l := bareServer(t, Config{Lanes: 1, MaxQueue: 2})
		submitted := mkQuery(1, 1, 1<<40)
		l.enqueue(submitted)
		if l.queue[0].buf == nil || l.queue[0].pkt.Messages[0].Trade == submitted.pkt.Messages[0].Trade {
			t.Fatal("queued packet still aliases the submitter's storage")
		}
		l.enqueue(mkQuery(2, 2, 1<<40))
		evicted := l.queue[0].buf
		l.enqueue(mkQuery(3, 3, 1<<40)) // full queue: evicts query 1
		if len(l.queue) != 2 || l.queue[0].id != 2 || l.queue[1].id != 3 {
			t.Fatalf("queue after evict = %+v; want queries 2 and 3", l.queue)
		}
		if l.queue[1].buf != evicted || len(l.free) != 0 {
			t.Errorf("the evicted query's buffer was not the one reused (%d free)", len(l.free))
		}
		if !intact(l.queue[0]) || !intact(l.queue[1]) {
			t.Errorf("queued packets damaged by the reuse: %+v", l.queue)
		}
	})

	t.Run("issue", func(t *testing.T) {
		_, l := bareServer(t, Config{Lanes: 1})
		l.enqueue(mkQuery(1, 1, 1<<40))
		l.enqueue(mkQuery(2, 2, 1<<40))
		batch, issue, tier, now, ok := l.take(false)
		if !ok || len(batch) != 2 {
			t.Fatalf("take = %d queries, ok=%v; want 2, true", len(batch), ok)
		}
		if len(l.free) != 0 {
			t.Fatalf("%d buffers freed at issue: the batch still reads them", len(l.free))
		}
		l.enqueue(mkQuery(3, 3, 1<<40)) // behind a batch in flight: storage of its own
		if !intact(batch[0]) || !intact(batch[1]) {
			t.Fatalf("in-flight batch lost its packets to a later enqueue: %+v", batch)
		}
		owned := map[*sbe.PacketBuffer]bool{batch[0].buf: true, batch[1].buf: true, l.queue[0].buf: true}
		l.process(batch, issue, tier, now)
		if len(l.free) != 2 {
			t.Fatalf("%d buffers back after the dispatch, want 2", len(l.free))
		}
		l.enqueue(mkQuery(4, 4, 1<<40))
		l.enqueue(mkQuery(5, 5, 1<<40))
		for _, q := range l.queue {
			if !owned[q.buf] {
				t.Errorf("query %d got a new buffer; the lane holds three and two were free", q.id)
			}
			if !intact(q) {
				t.Errorf("query %d damaged: %+v", q.id, q.pkt)
			}
		}
		if len(l.free) != 0 {
			t.Errorf("%d buffers still free after two enqueues", len(l.free))
		}
	})

	t.Run("drop", func(t *testing.T) {
		syscfg, err := core.Configure(nn.NewSizedCNN("retention", 8, 0), 1,
			core.Sufficient, core.Options{WorkloadScheduling: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, l := bareServer(t, Config{Lanes: 1, Sched: &syscfg.Sched})
		// Deadline before arrival: admission is deadline-infeasible, so the
		// query is dropped on the first take.
		l.enqueue(mkQuery(1, 100, 50))
		dropped := l.queue[0].buf
		if _, _, _, _, ok := l.take(false); ok {
			t.Fatal("expired query issued; want a deadline-infeasible drop")
		}
		if len(l.free) != 1 || l.free[0] != dropped {
			t.Errorf("dropped query's buffer not returned: %d free", len(l.free))
		}
		if got := srv.Stats().DeferredDeadline; got != 1 {
			t.Fatalf("DeferredDeadline = %d, want 1", got)
		}
	})

	t.Run("inline borrows", func(t *testing.T) {
		_, l := bareServer(t, Config{Lanes: 0})
		l.enqueue(mkQuery(1, 1, 1<<40))
		if l.queue[0].buf != nil {
			t.Fatal("an inline lane copied a packet it dispatches before submit returns")
		}
	})
}

// TestLatencyRecordsPerQueryShare pins the dispatch-latency histogram
// semantics: a batch of K queries contributes K samples of the batch's
// per-query share, so the samples sum to (at most) the batch wall time.
// Recording the whole-batch elapsed once per query — the old behaviour —
// would sum to ~K× the wall time and inflate every percentile by the batch
// size.
func TestLatencyRecordsPerQueryShare(t *testing.T) {
	const K = 512
	_, l := bareServer(t, Config{MaxQueue: K})
	for i := 0; i < K; i++ {
		l.enqueue(mkQuery(int64(i), int64(i), 1<<40))
	}
	start := time.Now()
	batch, issue, tier, now, ok := l.take(false)
	if !ok || len(batch) != K {
		t.Fatalf("take = %d queries, ok=%v; want %d, true", len(batch), ok, K)
	}
	l.process(batch, issue, tier, now)
	wall := time.Since(start).Nanoseconds()

	if got := l.lat.Count(); got != K {
		t.Fatalf("histogram count = %d, want %d (one sample per query)", got, K)
	}
	sum := l.lat.Mean() * float64(l.lat.Count())
	if sum > float64(wall) {
		t.Errorf("per-query samples sum to %.0f ns > %d ns batch wall time: "+
			"whole-batch elapsed recorded per query", sum, wall)
	}
	if l.lat.Max() != l.lat.Min() {
		t.Errorf("samples differ within one batch (min %d, max %d); want one equal share",
			l.lat.Min(), l.lat.Max())
	}
}

// TestGovernorPowerCapProperty is the budget-safety property: under
// concurrent lanes and an active governor (saves, redistributes, parks), the
// modelled draw across lanes never exceeds the power budget beyond float
// tolerance — observed live by a racing checker goroutine and again through
// the MaxPowerWatts high-water mark. Run under -race this also exercises the
// governor's locking.
func TestGovernorPowerCapProperty(t *testing.T) {
	syms := []string{"ESU6", "NQU6", "YMU6", "RTYU6"}
	packets := buildMarket(t, syms, nn.Window+120)
	syscfg, err := core.Configure(nn.NewDeepLOB(), len(syms), core.Limited,
		core.Options{WorkloadScheduling: true, DVFSScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	// Tighten the envelope so lanes actually contend: the governor must keep
	// the cap while scaling lanes up and down around it.
	syscfg.Sched.PowerBudgetWatts = 6
	budget := syscfg.Sched.PowerBudgetWatts
	srv, err := New(buildMulti(t, syms), Config{
		Lanes:            len(syms),
		MaxQueue:         256,
		Sched:            &syscfg.Sched,
		TAvailNanos:      5_000_000,
		ModelledClock:    true,
		PrePipelineNanos: core.DefaultPrePipelineNanos,
	})
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
	var checkWG sync.WaitGroup
	checkWG.Add(1)
	go func() {
		defer checkWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, watts := srv.gov.load(); watts > budget+1e-6 {
				t.Errorf("live draw %.9f W exceeds budget %.1f W", watts, budget)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// Two submitters split the feed by parity; with four round-robin listed
	// symbols each goroutine owns two instruments, so per-instrument arrival
	// order is preserved while submissions race across lanes.
	const spacing = 200_000 // ns between packets: keeps lanes modelled-busy
	var subWG sync.WaitGroup
	for part := 0; part < 2; part++ {
		subWG.Add(1)
		go func(part int) {
			defer subWG.Done()
			for i := part; i < len(packets); i += 2 {
				if err := srv.Submit(int64(i)*spacing, packets[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(part)
	}
	subWG.Wait()
	srv.Drain()
	cancel()
	runWG.Wait()
	close(stop)
	checkWG.Wait()

	st := srv.Stats()
	if st.MaxPowerWatts > budget+1e-6 {
		t.Errorf("MaxPowerWatts = %.9f W exceeds budget %.1f W", st.MaxPowerWatts, budget)
	}
	if st.MaxPowerWatts <= 0 {
		t.Error("MaxPowerWatts = 0: governor never observed any draw")
	}
	if st.Served == 0 {
		t.Error("no queries served: the property run was vacuous")
	}
	// The per-lane counters must be consistent with the aggregate view.
	var switches int64
	for _, ld := range srv.LaneDVFS() {
		switches += ld.Switches
		if ld.DrawWatts <= 0 {
			t.Errorf("lane %d reports non-positive draw %.3f W", ld.Lane, ld.DrawWatts)
		}
	}
	if int(switches) != st.DVFSSwitches {
		t.Errorf("per-lane switches sum %d != aggregate %d", switches, st.DVFSSwitches)
	}
}
