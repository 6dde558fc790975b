package serve

import (
	"sync"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/latency"
	"lighttrader/internal/sbe"
	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
)

// query is one decoded packet queued on a lane with its deadline.
type query struct {
	id  int64
	pkt sbe.Packet
	// buf is the lane-owned storage behind pkt when the queue outlives the
	// submit call (Server.retains); nil when pkt is still the submitter's.
	buf      *sbe.PacketBuffer
	arrival  int64
	deadline int64
}

// lane is one worker: a logical accelerator owning a shard of the
// subscription set. Queue state lives under mu; pipeline state (books,
// models, risk) lives under procMu so Snapshot and OnExecReport can
// synchronise with dispatch without stalling enqueues.
type lane struct {
	id    int
	srv   *Server
	pipes []*core.Pipeline
	// policy is this lane's admission strategy (built once per lane from
	// Config.Scheduler; nil without a scheduling config). Decide is only
	// called under l.mu, so lane-local policies need no further locking.
	policy sched.Scheduler
	// tiers is this lane's degrade ladder: one policy instance per tier
	// from the same factory as policy (stateful policies stay lane- and
	// tier-local). Empty without Config.Tiers.
	tiers []sched.Scheduler
	// curTier is the model tier the lane's pipelines are currently switched
	// to (guarded by procMu); process flips it only when it changes, so the
	// steady-state primary path never touches the pipelines' tier state.
	curTier int

	mu    sync.Mutex
	cond  *sync.Cond
	queue []query
	// free holds the packet storage of queries that have left the lane
	// (processed, evicted or dropped) for the next enqueue to copy into; one
	// is allocated only when free is empty, so the lane owns as many as its
	// queue plus one in-flight batch ever held at once, never MaxQueue up front.
	free        []*sbe.PacketBuffer
	lastArrival int64
	// busyNanos accumulates the modelled service time of this lane (Σ issued
	// t_total plus any governor retimes) — the per-accelerator makespan
	// input of the throughput model.
	busyNanos int64
	// freeNanos is the modelled completion time of the last issued batch —
	// the earliest instant the lane's modelled accelerator is free again
	// (modelled-clock admission starts the next decision there).
	freeNanos int64
	// savedAt is the decision instant whose power-saving retry has been
	// spent; the governor runs the saving step at most once per instant,
	// mirroring the simulator's once-per-schedule-call flag.
	savedAt int64
	// flushing releases the modelled-clock hold so Drain can run decisions
	// that lie beyond the newest submitted arrival.
	flushing bool
	inflight bool
	closed   bool

	procMu sync.Mutex
	// batch is the dispatch take hands to process and orders[i] what pipes[i]
	// generated over it; both are reused (a lane has one dispatcher at a time).
	batch  []query
	orders [][]exchange.Request
	// lat records the wall-clock dispatch latency of every query this lane
	// served (guarded by procMu; merged across lanes by Server.Latency).
	lat latency.Histogram
}

func newLane(id int, s *Server) *lane {
	l := &lane{id: id, srv: s, savedAt: -1 << 62}
	l.cond = sync.NewCond(&l.mu)
	if s.cfg.Sched != nil {
		f := s.cfg.Scheduler
		if f == nil {
			f, _ = sched.FactoryByName("ppw") // the registry's default entry: always there
		}
		l.policy = f(s.cfg.Sched)
		l.tiers = sched.NewModelTiers(f, s.gov.tierCfgs)
	}
	return l
}

// minDeadlineFor returns the earliest deadline over the first n queued
// queries — the in-flight slack bound the governor records at issue.
// Called under l.mu (from inside the governor's admit critical section).
func (l *lane) minDeadlineFor(n int) int64 {
	min := l.queue[0].deadline
	for _, q := range l.queue[1:n] {
		if q.deadline < min {
			min = q.deadline
		}
	}
	return min
}

// enqueue appends a query and wakes the worker. A full queue evicts the
// lane's oldest query (stale-tensor management): the submitter never waits.
func (l *lane) enqueue(q query) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if len(l.queue) >= l.srv.cfg.MaxQueue {
		old := l.queue[0]
		l.pop(1)
		l.recycle(old)
		l.srv.queued.Add(-1)
		l.srv.stats.evicted.Add(1)
		l.srv.probe.query(sim.QueryEvent{
			TimeNanos: q.arrival, Kind: sim.QueryEvict,
			Query: simQuery(old), Accel: -1,
		})
	}
	if l.srv.retains() {
		// The submitter reuses pkt's storage once submit returns: keep a copy
		// in storage this lane owns and gets back after the dispatch.
		if n := len(l.free); n > 0 {
			q.buf, l.free = l.free[n-1], l.free[:n-1]
		} else {
			q.buf = new(sbe.PacketBuffer)
		}
		q.pkt = q.buf.CopyPacket(q.pkt)
	}
	l.queue = append(l.queue, q)
	if q.arrival > l.lastArrival {
		l.lastArrival = q.arrival
	}
	l.srv.queued.Add(1)
	l.mu.Unlock()
	// Broadcast, not Signal: the worker and any Drain caller share the cond.
	l.cond.Broadcast()
}

// close wakes the worker for shutdown.
func (l *lane) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// work is the lane goroutine: take a feasible batch, process it, repeat.
func (l *lane) work() {
	for {
		batch, issue, tier, now, ok := l.take(true)
		if !ok {
			return
		}
		l.process(batch, issue, tier, now)
	}
}

// dispatchAll drains the queue synchronously (inline mode).
func (l *lane) dispatchAll() {
	for {
		batch, issue, tier, now, ok := l.take(false)
		if !ok {
			return
		}
		l.process(batch, issue, tier, now)
	}
}

// now returns the admission clock under l.mu: the configured clock, or the
// newest accepted arrival (the logical clock that makes trace replays
// deterministic).
func (l *lane) now() int64 {
	if l.srv.cfg.Clock != nil {
		return l.srv.cfg.Clock()
	}
	return l.lastArrival
}

// pop removes the n oldest queries. An emptied queue restarts at the front of
// its backing array, so a lane that keeps up enqueues without allocating.
// Called under l.mu.
func (l *lane) pop(n int) {
	if n == len(l.queue) {
		l.queue = l.queue[:0]
	} else {
		l.queue = l.queue[n:]
	}
}

// recycle takes back the packet storage of a query that has left the lane.
// Called under l.mu.
func (l *lane) recycle(q query) {
	if q.buf != nil {
		l.free = append(l.free, q.buf)
	}
}

// issue moves the n oldest queries into the lane's batch. Called under l.mu.
func (l *lane) issue(n int) []query {
	l.batch = append(l.batch[:0], l.queue[:n]...)
	l.pop(n)
	l.srv.queued.Add(-int64(n))
	l.inflight = true
	return l.batch
}

// take blocks (when wait is true) until it can hand the caller a batch to
// process, applying Algorithm 1 online: over-deadline and infeasible
// queries are dropped with per-cause accounting until either a feasible
// (dvfs, batch) candidate exists or the queue runs dry. Admission runs
// through the server's power governor, which makes the decision and its
// power commitment one transaction, retries power-infeasible decisions
// after Algorithm 2's saving step, and — with a degrade ladder configured —
// re-runs still-infeasible decisions against the cheaper tiers before the
// oldest query is dropped. Returns the admitted model tier (0 = primary)
// and ok=false when the lane is closed (worker mode) or the queue is empty
// or held (inline).
//
// Under the modelled clock the decision instant is max(oldest arrival,
// modelled free time) and only queries that have arrived by then join the
// batch; a decision lying beyond the newest submitted arrival is held until
// the logical clock catches up (or Drain flushes).
func (l *lane) take(wait bool) (batch []query, issue sched.Issue, tier int, now int64, ok bool) {
	cfg := l.srv.cfg.Sched
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed && wait {
			// Shutdown abandons the unissued backlog for a prompt stop.
			return nil, sched.Issue{}, 0, 0, false
		}
		for len(l.queue) > 0 {
			now = l.now()
			arrived := len(l.queue)
			if l.srv.cfg.ModelledClock {
				if cfg != nil {
					// Governor DVFS changes retime the lane's last batch after
					// process recorded it; the decision instant tracks the
					// retimed completion.
					if free := l.srv.gov.projectedDone(l.id); free > l.freeNanos {
						l.freeNanos = free
					}
				}
				now = l.queue[0].arrival
				if l.freeNanos > now {
					now = l.freeNanos
				}
				if now > l.lastArrival && !l.flushing {
					break // hold: the decision lies beyond the logical clock
				}
				arrived = 1
				for arrived < len(l.queue) && l.queue[arrived].arrival <= now {
					arrived++
				}
			}
			if cfg == nil {
				// No admission: serve the arrived backlog as one batch.
				return l.issue(arrived), sched.Issue{Batch: arrived}, 0, now, true
			}
			oldest := l.queue[0]
			avail := oldest.deadline - now - l.srv.cfg.PrePipelineNanos
			dec, saved, busy := l.srv.gov.admit(l, now, arrived, avail, now != l.savedAt)
			if busy {
				continue // retimed past now: take the decision instant again
			}
			if saved {
				l.savedAt = now
			}
			verdict := dec.Verdict
			if verdict == sched.VerdictIssued || verdict == sched.VerdictDegradedModel {
				if verdict == sched.VerdictDegradedModel {
					l.srv.probe.query(sim.QueryEvent{
						TimeNanos: now, Kind: sim.QueryDegrade, Query: simQuery(oldest),
						Accel: l.id, Batch: dec.Issue.Batch, Tier: dec.Tier,
					})
				}
				return l.issue(dec.Issue.Batch), dec.Issue, dec.Tier, now, true
			}
			// No feasible candidate for the oldest query: drop it, attribute
			// the cause, and retry with the next. Wake Drain waiters sharing
			// the cond: if the whole backlog drains this way the worker parks
			// in Wait below and nothing else would ever wake them.
			l.pop(1)
			l.recycle(oldest)
			l.srv.queued.Add(-1)
			l.cond.Broadcast()
			switch verdict {
			case sched.VerdictPowerInfeasible:
				l.srv.stats.deferredPower.Add(1)
			default:
				l.srv.stats.deferredDeadline.Add(1)
			}
			l.srv.probe.query(sim.QueryEvent{
				TimeNanos: now, Kind: sim.QueryDefer, Query: simQuery(oldest),
				Accel: -1, Cause: verdict.DeferCause(),
			})
		}
		if l.closed || !wait {
			return nil, sched.Issue{}, 0, 0, false
		}
		l.cond.Wait()
	}
}

// process runs one issued batch through the lane's pipelines and accounts
// the completions. The modelled completion time is now + pre-pipeline +
// t_total from the policy's sched.Table (the issuing tier's for a degraded
// batch), retimed by any governor DVFS changes the batch received in
// flight; under a wall clock, completion is re-checked against the deadline
// so real-time overruns surface as late responses. A non-zero tier switches
// the pipelines' forward pass to the ladder model before dispatch.
func (l *lane) process(batch []query, issue sched.Issue, tier int, now int64) {
	done := now + l.srv.cfg.PrePipelineNanos + issue.TotalNanos
	if l.srv.probe.active() {
		for _, q := range batch {
			l.srv.probe.query(sim.QueryEvent{
				TimeNanos: now, Kind: sim.QueryIssue, Query: simQuery(q),
				Accel: l.id, Batch: len(batch), DoneNanos: done, Tier: tier,
			})
		}
	}

	start := time.Now()
	l.procMu.Lock()
	if tier != l.curTier {
		for _, p := range l.pipes {
			p.SetActiveTier(tier)
		}
		l.curTier = tier
	}
	for _, q := range batch {
		for i, p := range l.pipes {
			reqs, err := p.OnDecodedPacket(q.pkt)
			if err != nil {
				l.srv.stats.errors.Add(1)
				continue
			}
			l.orders[i] = append(l.orders[i], reqs...)
		}
	}
	// The dispatch is the unit of egress: each instrument's orders leave in
	// one sink call, in the order its packets generated them.
	for i, p := range l.pipes {
		l.srv.deliver(p.SecurityID(), l.orders[i])
		l.orders[i] = l.orders[i][:0]
	}
	elapsed := time.Since(start).Nanoseconds()
	// Attribute each query its share of the batch wall time: recording the
	// whole-batch elapsed once per query would inflate the per-query
	// percentiles by the batch size.
	share := elapsed / int64(len(batch))
	for range batch {
		l.lat.Record(share)
	}
	l.procMu.Unlock()

	modelledDone := done
	if l.srv.cfg.Sched != nil {
		if l.srv.cfg.ModelledClock {
			// The batch completes on modelled time, possibly retimed by
			// governor DVFS changes since issue; its power is released
			// lazily when the governor's event clock passes the completion
			// (retireDue), not here — the wall-clock dispatch finishing
			// carries no modelled meaning.
			modelledDone = l.srv.gov.projectedDone(l.id)
		} else {
			// Live serving: the dispatch finishing IS the completion.
			// Retire through the governor: park at the floor under DVFS
			// scheduling and spend the freed budget on still-busy lanes.
			modelledDone = l.srv.gov.retire(l.id)
		}
		done = modelledDone
	}
	if l.srv.cfg.Clock != nil {
		done = l.srv.cfg.Clock()
	}
	for _, q := range batch {
		if done > q.deadline {
			l.srv.stats.late.Add(1)
		} else {
			l.srv.stats.served.Add(1)
		}
		l.srv.probe.query(sim.QueryEvent{
			TimeNanos: done, Kind: sim.QueryComplete, Query: simQuery(q),
			Accel: l.id, Batch: len(batch), DoneNanos: done, Tier: tier,
		})
	}
	l.srv.stats.batches.Add(1)
	l.srv.stats.batchSum.Add(int64(len(batch)))
	l.srv.sample(done)

	l.mu.Lock()
	l.busyNanos += modelledDone - now - l.srv.cfg.PrePipelineNanos
	l.freeNanos = modelledDone
	l.inflight = false
	for _, q := range batch {
		l.recycle(q)
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// advance moves the lane's logical clock to now and dispatches every
// decision due at or before it — the simulator's
// advance-internal-events-then-arrive ordering, so queue occupancy at the
// arrival instant matches core.System's.
func (l *lane) advance(now int64) {
	l.mu.Lock()
	if now > l.lastArrival {
		l.lastArrival = now
	}
	l.mu.Unlock()
	l.dispatchAll()
}

// drain blocks until the lane's queue is empty and no batch is in flight.
func (l *lane) drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for (len(l.queue) > 0 || l.inflight) && !l.closed {
		l.cond.Wait()
	}
}
