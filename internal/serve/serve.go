// Package serve is the concurrent multi-symbol serving runtime: the online
// counterpart of the back-test simulator's proactive scheduler (paper
// §III-D). A Server shards the subscriptions of a core.MultiPipeline across
// worker lanes — one logical lane per modelled accelerator — and applies
// Algorithm 1's (batch size, deadline-feasibility) decision to live
// queries: decoded packets queue per lane with arrival-time deadlines, the
// dispatcher picks the PPW-best feasible batch using the sched latency
// tables against a shared power budget, infeasible queries are dropped with
// per-cause accounting, and bounded queues evict the oldest entry (the
// stale-tensor policy of §III-A) instead of growing without bound.
//
// Determinism: each pipeline is owned by exactly one lane and each lane
// drains its queue in FIFO order, so every instrument sees its packets in
// arrival order regardless of lane count — the per-symbol book and order
// stream are identical for any N to a serial dispatch over the subscription
// set (the reference the parity tests keep). A Config with Lanes == 0 runs
// the same admission and dispatch path inline on the caller's goroutine:
// the serial path is the degenerate single-lane configuration of the
// runtime, not a separate code path. Packets enter one
// way (Submit / SubmitPacket) and orders leave one way (the OnOrders sink)
// at every lane count; inline, a packet's orders have reached the sink by
// the time its submit call returns.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/latency"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/sbe"
	"lighttrader/internal/sched"
	"lighttrader/internal/signal"
	"lighttrader/internal/sim"
)

// OrderSink receives the order requests one instrument generated from one
// dispatch — every packet of the batch a lane issued together, in packet
// order; inline, and whenever a lane keeps up, that is one packet. reqs is
// lane-owned scratch, valid for the call only. Sinks are called from lane
// goroutines (or the caller's goroutine in inline mode) and must be safe for
// concurrent use; calls for the same instrument arrive in dispatch order.
type OrderSink func(securityID int32, reqs []exchange.Request)

// TierConfig is one rung of the model-degrade ladder: a cheaper compiled
// model's scheduling tables plus (optionally) its functional software model.
type TierConfig struct {
	// Sched is the tier's compiled cost model (what its sched.Table is
	// profiled from: kernel, activity factor, static point). It must share the primary Config.Sched's
	// power budget: the ladder changes what runs, never the hardware
	// envelope. Required.
	Sched *sched.Config
	// Model, when non-nil, is the tier's functional software model: lanes
	// switch the pipeline forward pass to it while a degraded batch is
	// dispatched, so served predictions really come from the cheaper
	// network. It must share the primary model's input shape (zoo variants
	// crop lookback inside the network). nil keeps the primary forward
	// pass — the cost model alone drives admission, which is what replay
	// experiments with SetPredictor hooks use.
	Model *nn.Model
}

// Config configures a Server.
type Config struct {
	// Lanes is the worker-lane count, one logical lane per modelled
	// accelerator. 0 runs the runtime inline on the caller's goroutine
	// (the degenerate serial configuration); negative is an error.
	Lanes int
	// Inline dispatches on the submitter's goroutine even with Lanes > 1:
	// the lanes exist as logical accelerators (sharding, admission, power
	// accounting) but no workers run. Implied by Lanes == 0 and by
	// ModelledClock.
	Inline bool
	// MaxQueue bounds each lane's query queue; an arrival beyond it evicts
	// the lane's oldest query (stale-tensor management). 0 means 64;
	// negative is an error.
	MaxQueue int
	// Sched, when non-nil, enables online Algorithm-1 admission: each lane
	// dispatch picks the PPW-best feasible (dvfs, batch) candidate from the
	// policy's sched.Table and drops queries no candidate can serve in time.
	// When nil every query is served (batch = whole backlog, no deadlines).
	Sched *sched.Config
	// Scheduler selects the admission strategy each lane runs when Sched is
	// non-nil. nil selects the paper's proactive PPW scheduler (Algorithm 1).
	// The factory is invoked once per lane; a factory returning one shared
	// instance must be read-only in Decide, as every registry policy is.
	Scheduler sched.Factory
	// Tiers is the model-degrade ladder, cost-descending (tier 1 first):
	// when Algorithm 1 finds the primary model deadline- or power-
	// infeasible for the oldest query — after the governor's power-saving
	// retry — admission re-runs down the ladder and issues on the first
	// tier that fits instead of dropping, trading prediction accuracy for
	// a response. Degraded issues are counted (Stats.Degrades, TierIssues)
	// and probed (sim.QueryDegrade), never hidden. Requires Sched; every
	// tier must keep the primary budget. Empty disables degradation.
	Tiers []TierConfig
	// TAvailNanos is the deadline budget granted to queries submitted
	// without an explicit deadline. 0 means no deadline (infinite budget).
	TAvailNanos int64
	// Clock supplies "now" for admission decisions. nil selects the
	// arrival-driven logical clock: a lane's now is the newest arrival
	// timestamp it has accepted, which makes runs over recorded traces
	// deterministic and independent of wall time.
	Clock func() int64
	// ModelledClock replays a recorded trace on simulator time: each lane's
	// decision instant is max(oldest arrival, modelled free time of its
	// accelerator per the sched.Table's t_total), only queries arrived by that
	// instant join a batch, and decisions beyond the newest submitted
	// arrival are held until the logical clock catches up (Drain flushes
	// them). It reproduces the back-test simulator's admission timing — the
	// sim-vs-serve differential mode — so it implies Inline (one outcome at
	// every lane count and on every run), and is incompatible with Clock.
	ModelledClock bool
	// PrePipelineNanos is the modelled FPGA front-pipeline time (packet
	// parse, book update, feature packing) charged before a query reaches
	// the accelerator: it is subtracted from the admission deadline budget
	// and added to the modelled completion. 0 models a free front pipeline
	// (the historical serving behaviour); core.DefaultPrePipelineNanos
	// matches the simulator.
	PrePipelineNanos int64
	// DisablePowerGovernor turns off the online Algorithm-2 power governor
	// (power-saving retry on power-infeasible admission, residual-budget
	// redistribution, retire-time parking), leaving plain Algorithm-1
	// admission against the shared budget — the pre-governor baseline the
	// limited-power experiments compare against. Admission power accounting
	// stays transactional either way.
	DisablePowerGovernor bool
	// Probe observes the runtime's query lifecycle, queue depth and power
	// samples with the same event taxonomy as the back-test simulator.
	// Events from concurrent lanes are serialised but may interleave
	// across lanes out of timestamp order.
	Probe sim.Probe
	// OnOrders receives generated orders, one call per instrument per
	// dispatch (see OrderSink). nil discards them (Stats still counts them).
	OnOrders OrderSink
	// Signals, when non-nil, attaches the signal-distribution gateway: New
	// registers one signal.Publisher per subscription and installs its
	// Publish as the pipeline's SignalHook, so every inference result is
	// offered to the gateway's conflated per-symbol streams. With no
	// subscribers the hook is a counter increment — the tick path keeps its
	// latency and 0-alloc budget. The Server does not own the gateway's
	// lifecycle; the caller Closes it.
	Signals *signal.Gateway
}

// Server is the serving runtime. Build with New, start lanes with Run (or
// use inline mode), feed it decoded packets with SubmitPacket, and read
// per-cause accounting from Stats.
type Server struct {
	cfg   Config
	lanes []*lane
	bySec map[int32]*lane // securityID → owning lane
	gov   *governor
	probe *lockedProbe
	stats *stats

	// inlineMu serialises inline-mode submissions end to end; pktBuf is only
	// touched under it.
	inlineMu sync.Mutex
	pktBuf   sbe.PacketBuffer

	runMu   sync.Mutex
	running bool
	done    sync.WaitGroup

	nextID atomic.Int64
	queued atomic.Int64 // total queries queued across lanes (probe samples)
}

// New builds a Server over mp's subscriptions. Pipelines are sharded
// round-robin in subscription order, so lane ownership is deterministic:
// subscription i lives on lane i mod Lanes. The Server takes ownership of
// the pipelines — after New, access their state only through Snapshot,
// OnExecReport and the order sink.
func New(mp *core.MultiPipeline, cfg Config) (*Server, error) {
	if mp == nil || mp.Len() == 0 {
		return nil, errors.New("serve: no subscriptions")
	}
	if cfg.Lanes < 0 {
		return nil, fmt.Errorf("serve: negative lane count %d", cfg.Lanes)
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("serve: negative queue bound %d", cfg.MaxQueue)
	}
	if cfg.Sched != nil {
		if err := cfg.Sched.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if len(cfg.Tiers) > 0 {
		if cfg.Sched == nil {
			return nil, errors.New("serve: Tiers require a primary scheduling config")
		}
		for i, t := range cfg.Tiers {
			if t.Sched == nil {
				return nil, fmt.Errorf("serve: tier %d has no scheduling config", i+1)
			}
			if err := t.Sched.Validate(); err != nil {
				return nil, fmt.Errorf("serve: tier %d: %w", i+1, err)
			}
			if t.Sched.PowerBudgetWatts != cfg.Sched.PowerBudgetWatts {
				return nil, fmt.Errorf("serve: tier %d changes the power budget (%.1f W vs %.1f W): the ladder swaps models, not the envelope",
					i+1, t.Sched.PowerBudgetWatts, cfg.Sched.PowerBudgetWatts)
			}
		}
	}
	if cfg.TAvailNanos < 0 {
		return nil, fmt.Errorf("serve: negative deadline budget %d ns", cfg.TAvailNanos)
	}
	if cfg.PrePipelineNanos < 0 {
		return nil, fmt.Errorf("serve: negative pre-pipeline time %d ns", cfg.PrePipelineNanos)
	}
	if cfg.ModelledClock && cfg.Clock != nil {
		return nil, errors.New("serve: ModelledClock is incompatible with an external Clock")
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	n := cfg.Lanes
	if n == 0 {
		n = 1 // inline mode still runs one logical lane
	}
	pipes := mp.Pipelines()
	if n > len(pipes) {
		n = len(pipes)
	}
	s := &Server{
		cfg:   cfg,
		bySec: make(map[int32]*lane, len(pipes)),
		probe: newLockedProbe(cfg.Probe),
		stats: &stats{},
	}
	s.gov = newGovernor(s, cfg.Sched, n)
	s.lanes = make([]*lane, n)
	for i := range s.lanes {
		s.lanes[i] = newLane(i, s)
	}
	for i, p := range pipes {
		l := s.lanes[i%n]
		l.pipes = append(l.pipes, p)
		l.orders = append(l.orders, nil)
		s.bySec[p.SecurityID()] = l
	}
	if len(cfg.Tiers) > 0 {
		ladder := make([]*nn.Model, len(cfg.Tiers))
		for i, t := range cfg.Tiers {
			ladder[i] = t.Model
		}
		for _, p := range pipes {
			for i, m := range ladder {
				if m == nil {
					continue
				}
				if !shapeEq(m.InputShape, p.Model().InputShape) {
					return nil, fmt.Errorf("serve: tier %d model %s expects input %v, pipeline %s feeds %v (zoo variants crop lookback inside the network)",
						i+1, m.ModelName, m.InputShape, p.Symbol(), p.Model().InputShape)
				}
			}
			p.SetModelLadder(ladder)
		}
	}
	if cfg.Signals != nil {
		for _, p := range pipes {
			pub, err := cfg.Signals.Register(p.Symbol(), p.SecurityID())
			if err != nil {
				return nil, fmt.Errorf("serve: signal register: %w", err)
			}
			p.SetSignalHook(pub.Publish)
		}
	}
	return s, nil
}

// Lanes returns the effective lane count.
func (s *Server) Lanes() int { return len(s.lanes) }

// Inline reports whether the runtime dispatches on the caller's goroutine.
func (s *Server) Inline() bool { return s.cfg.Lanes == 0 || s.cfg.Inline || s.cfg.ModelledClock }

// Run starts the lane workers and blocks until ctx is cancelled, then
// stops the lanes and waits for their in-flight batches to finish
// (queued-but-unissued queries are abandoned; Stats still counts them as
// submitted). A Server runs at most once: after Run returns it stays
// stopped. In inline mode there are no workers and Run just blocks until
// cancellation. Run returns ctx.Err().
func (s *Server) Run(ctx context.Context) error {
	s.runMu.Lock()
	if s.running {
		s.runMu.Unlock()
		return errors.New("serve: already running")
	}
	s.running = true
	if !s.Inline() {
		for _, l := range s.lanes {
			s.done.Add(1)
			go func(l *lane) {
				defer s.done.Done()
				l.work()
			}(l)
		}
	}
	s.runMu.Unlock()

	<-ctx.Done()

	for _, l := range s.lanes {
		l.close()
	}
	s.done.Wait()
	return ctx.Err()
}

// Submit parses one datagram and enqueues it with the given arrival time.
func (s *Server) Submit(arrivalNanos int64, buf []byte) error {
	if s.Inline() {
		s.inlineMu.Lock()
		defer s.inlineMu.Unlock()
	}
	var pkt sbe.Packet
	var err error
	if s.Inline() {
		pkt, err = sbe.DecodePacketInto(buf, &s.pktBuf)
	} else {
		// Worker-lane submitters may be concurrent and cannot share pktBuf.
		pkt, err = sbe.DecodePacket(buf)
	}
	if err != nil {
		return fmt.Errorf("serve: packet parse: %w", err)
	}
	s.submit(arrivalNanos, pkt)
	return nil
}

// SubmitPacket enqueues a decoded packet for every lane owning an
// instrument the packet touches. The deadline is arrival + TAvailNanos
// (or unbounded when TAvailNanos is 0). In inline mode the packet is
// dispatched, and its orders delivered to the sink, before SubmitPacket
// returns. pkt is borrowed for the call: the caller may reuse its decode
// storage as soon as SubmitPacket returns. A queue that keeps the packet
// longer (retains) copies it into storage its lane owns and takes back after
// the dispatch, so a warm lane queues packets without allocating.
func (s *Server) SubmitPacket(arrivalNanos int64, pkt sbe.Packet) {
	if s.Inline() {
		s.inlineMu.Lock()
		defer s.inlineMu.Unlock()
	}
	s.submit(arrivalNanos, pkt)
}

// retains reports whether a submitted packet outlives its submit call.
// Inline, the lane queue drains before submit returns; worker lanes and
// modelled-clock holds keep queries queued past it, in lane-owned storage.
func (s *Server) retains() bool { return !s.Inline() || s.cfg.ModelledClock }

// submit routes and enqueues one packet. Inline callers hold inlineMu.
func (s *Server) submit(arrivalNanos int64, pkt sbe.Packet) {
	deadline := int64(1<<63 - 1)
	if s.cfg.TAvailNanos > 0 {
		deadline = arrivalNanos + s.cfg.TAvailNanos
	}
	// Route into this call's frame: worker-mode submitters may be concurrent.
	var scratch [8]*lane
	for _, l := range s.route(pkt, scratch[:0]) {
		q := query{
			id:       s.nextID.Add(1) - 1,
			pkt:      pkt,
			arrival:  arrivalNanos,
			deadline: deadline,
		}
		s.stats.submitted.Add(1)
		s.probe.query(sim.QueryEvent{
			TimeNanos: arrivalNanos, Kind: sim.QueryArrive,
			Query: simQuery(q), Accel: -1,
		})
		if s.cfg.ModelledClock {
			// Advance-then-arrive: dispatch every decision due at or before
			// the new arrival first, so the queue the arrival lands in (and
			// may evict from) matches the simulator's event ordering.
			l.advance(arrivalNanos)
		}
		l.enqueue(q)
		if s.Inline() {
			l.dispatchAll()
		}
	}
}

// deliver counts generated orders and hands them to the configured sink.
func (s *Server) deliver(securityID int32, reqs []exchange.Request) {
	if len(reqs) == 0 {
		return
	}
	s.stats.orders.Add(int64(len(reqs)))
	if s.cfg.OnOrders != nil {
		s.cfg.OnOrders(securityID, reqs)
	}
}

// ArrivalNanos returns the submission timestamp this Server would stamp on
// pkt: the configured clock, or — under the arrival-driven logical clock —
// the packet's first transact time, falling back to 0 for packets that
// carry none (trades, snapshots). Submitters without their own arrival
// source should use it so trace replays stay deterministic: a wall-clock
// fallback would ratchet the logical clock far ahead of trace time and can
// make every later deadline infeasible.
func (s *Server) ArrivalNanos(pkt sbe.Packet) int64 {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	for _, msg := range pkt.Messages {
		if msg.Incremental != nil {
			return int64(msg.Incremental.TransactTime)
		}
	}
	return 0
}

// route returns the lanes owning instruments this packet touches, appended
// to out (empty, caller-owned). Entries with SecurityID 0 are wildcards (every
// subscription applies them), so such packets go to every lane.
func (s *Server) route(pkt sbe.Packet, out []*lane) []*lane {
	add := func(sec int32) bool {
		if sec == 0 {
			return true // wildcard: all lanes
		}
		l, ok := s.bySec[sec]
		if !ok {
			return false
		}
		for _, have := range out { // at most one entry per lane: a short scan
			if have == l {
				return false
			}
		}
		out = append(out, l)
		return false
	}
	for _, msg := range pkt.Messages {
		switch {
		case msg.Incremental != nil:
			for _, e := range msg.Incremental.Entries {
				if add(e.SecurityID) {
					return s.lanes
				}
			}
		case msg.Trade != nil:
			if add(msg.Trade.SecurityID) {
				return s.lanes
			}
		case msg.Snapshot != nil:
			if add(msg.Snapshot.SecurityID) {
				return s.lanes
			}
		}
	}
	return out
}

// Drain blocks until every lane's queue is empty and no batch is in
// flight, then returns. Combined with the logical clock it gives tests a
// quiesce point: after Drain, books, order logs and stats are stable.
// Under the modelled clock Drain flushes held decisions (those beyond the
// newest submitted arrival) on the caller's goroutine — the end-of-trace
// drain of the simulator.
func (s *Server) Drain() {
	if s.cfg.ModelledClock {
		s.inlineMu.Lock()
		defer s.inlineMu.Unlock()
		for _, l := range s.lanes {
			l.mu.Lock()
			l.flushing = true
			l.mu.Unlock()
			l.dispatchAll()
			l.mu.Lock()
			l.flushing = false
			l.mu.Unlock()
		}
		s.gov.flush()
		return
	}
	for _, l := range s.lanes {
		l.drain()
	}
}

// withPipe runs f on one instrument's pipeline under the owning lane's
// procMu, so f is synchronised with that lane's dispatch. It reports false
// (f not run) for an instrument the Server does not serve.
func (s *Server) withPipe(securityID int32, f func(*core.Pipeline)) bool {
	l, ok := s.bySec[securityID]
	if !ok {
		return false
	}
	l.procMu.Lock()
	defer l.procMu.Unlock()
	for _, p := range l.pipes {
		if p.SecurityID() == securityID {
			f(p)
			return true
		}
	}
	return false
}

// Snapshot returns the current book of one instrument, synchronised with
// the owning lane's dispatch (safe to call concurrently with serving).
func (s *Server) Snapshot(securityID int32, timeNanos int64) (snap lob.Snapshot, ok bool) {
	ok = s.withPipe(securityID, func(p *core.Pipeline) { snap = p.Snapshot(timeNanos) })
	return snap, ok
}

// Inferences returns one instrument's forward-pass count (synchronised).
func (s *Server) Inferences(securityID int32) (n int) {
	s.withPipe(securityID, func(p *core.Pipeline) { n = p.Inferences() })
	return n
}

// OnExecReport routes an execution report to the owning instrument,
// synchronised with the owning lane's dispatch.
func (s *Server) OnExecReport(rep exchange.ExecReport) {
	s.withPipe(rep.SecurityID, func(p *core.Pipeline) { p.OnExecReport(rep) })
}

// Stats returns a consistent copy of the runtime counters. With a
// scheduling config the power-governor counters are folded in; with a
// signal gateway attached, the signal-distribution counters are too.
func (s *Server) Stats() Stats {
	st := s.stats.snapshot()
	if s.gov.board != nil {
		gc := s.gov.counters()
		st.PowerSaveRetries = int(gc.retries)
		st.PowerSaveRescues = int(gc.rescues)
		st.DVFSSaves = int(gc.saves)
		st.DVFSRedistributes = int(gc.redistributes)
		st.DVFSParks = int(gc.parks)
		st.DVFSSwitches = int(gc.switches)
		st.MaxPowerWatts = gc.maxDraw
		st.Degrades = int(gc.degrades)
		if gc.tierIssues != nil {
			st.TierIssues = make([]int, len(gc.tierIssues))
			for i, n := range gc.tierIssues {
				st.TierIssues[i] = int(n)
			}
		}
	}
	if s.cfg.Signals != nil {
		gs := s.cfg.Signals.Stats()
		st.SignalsPublished = gs.Published
		st.SignalsDelivered = gs.Delivered
		st.SignalDrops = gs.ConflationDrops
		st.SignalSubscribers = gs.Subscribers
	}
	return st
}

// Latency merges every lane's wall-clock dispatch histogram and returns
// the combined percentile digest — the serving runtime's measured (not
// modelled) per-query processing latency.
func (s *Server) Latency() latency.Summary {
	var merged latency.Histogram
	for _, l := range s.lanes {
		l.procMu.Lock()
		merged.Merge(&l.lat)
		l.procMu.Unlock()
	}
	return merged.Summarize()
}

// ModelledBusyNanos returns each lane's accumulated modelled service time
// (Σ t_total of issued batches, as read from the sched.Table). The maximum
// entry is the modelled makespan of the replay; the modelled serving
// throughput is queries served / makespan. Zero without a scheduling config.
func (s *Server) ModelledBusyNanos() []int64 {
	out := make([]int64, len(s.lanes))
	for i, l := range s.lanes {
		l.mu.Lock()
		out[i] = l.busyNanos
		l.mu.Unlock()
	}
	return out
}

// simQuery maps a runtime query onto the probe event taxonomy.
func simQuery(q query) sim.Query {
	return sim.Query{ID: q.id, ArrivalNanos: q.arrival, DeadlineNanos: q.deadline}
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
