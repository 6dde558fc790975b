// Package core integrates the LightTrader system (paper §III): the FPGA
// trading pipeline, the offload engine queue, one or more CGRA AI
// accelerators behind the C2C interconnect, and the proactive scheduler.
// It provides two faces: System, the profiled-latency model driven by the
// back-test simulator (internal/sim), and Pipeline (pipeline.go), the
// functional packet→parse→book→infer→order path used by the live-wire
// examples.
package core

import (
	"fmt"

	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
)

// SystemConfig configures a simulated LightTrader instance.
type SystemConfig struct {
	// Sched carries the hardware models and scheduling feature switches.
	Sched sched.Config
	// Scheduler selects the scheduling strategy deciding what each idle
	// accelerator issues. nil selects the registry's "ppw" entry, the
	// paper's proactive PPW scheduler (Algorithm 1).
	Scheduler sched.Factory
	// NumAccels is the accelerator count (1…16 in the paper's sweeps).
	NumAccels int
	// PrePipelineNanos is the FPGA trading-pipeline time before a tensor
	// reaches the offload engine: packet parse, book update, feature
	// packing (≈350 ns on the KU15P-class pipeline).
	PrePipelineNanos int64
	// MaxQueue bounds the offload-engine FIFO; arrivals beyond it evict
	// the oldest tensor (stale-tensor management, §III-A). Zero means 64.
	MaxQueue int
}

// DefaultPrePipelineNanos is the calibrated FPGA front-pipeline latency.
const DefaultPrePipelineNanos = 350

// DefaultPostPipelineNanos is the calibrated post-inference latency:
// trading-engine decision plus order encoding and egress.
const DefaultPostPipelineNanos = 310

// System is the simulated LightTrader appliance implementing
// sim.SystemModel: the scheduling board (accelerator array and power
// ledger) driven by simulator event time, plus the shared offload FIFO, the
// in-flight batches' queries and the energy integral.
type System struct {
	cfg   SystemConfig
	name  string
	queue []sim.Query
	board *sched.Board
	// batches[i] holds the queries in flight on accelerator i (nil when
	// idle), kept for their Completion records.
	batches [][]sim.Query

	// policy is the scheduling strategy, rebuilt from cfg.Scheduler on
	// every Reset so stateful policies start each run fresh.
	policy sched.Scheduler

	pending []sim.Completion
	lastNow int64

	energyJ      float64
	lastEnergyAt int64
	energyStart  bool

	// probe observes scheduler-internal events; nil outside instrumented
	// runs. Probes never influence decisions (determinism invariant).
	probe sim.Probe
}

var _ sim.SystemModel = (*System)(nil)
var _ sim.EnergyReporter = (*System)(nil)
var _ sim.Instrumentable = (*System)(nil)

// NewSystem builds a LightTrader system model.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.NumAccels < 1 {
		return nil, fmt.Errorf("core: need at least one accelerator, got %d", cfg.NumAccels)
	}
	if cfg.Sched.Kernel == nil {
		return nil, fmt.Errorf("core: scheduler config carries no kernel")
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.PrePipelineNanos == 0 {
		cfg.PrePipelineNanos = DefaultPrePipelineNanos
	}
	if cfg.Sched.PostProcessNanos == 0 {
		cfg.Sched.PostProcessNanos = DefaultPostPipelineNanos
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler, _ = sched.FactoryByName("ppw") // the registry's default entry: always there
	}
	if err := cfg.Sched.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tag := "baseline"
	switch {
	case cfg.Sched.WorkloadScheduling && cfg.Sched.DVFSScheduling:
		tag = "WS+DS"
	case cfg.Sched.WorkloadScheduling:
		tag = "WS"
	case cfg.Sched.DVFSScheduling:
		tag = "DS"
	}
	s := &System{cfg: cfg}
	s.board = sched.NewBoard(&s.cfg.Sched, nil, cfg.NumAccels, cfg.PrePipelineNanos,
		cfg.Sched.DVFSScheduling, s.emitDVFS)
	s.Reset()
	if name := s.policy.Name(); name != "ppw" {
		// Non-default policies show up in the system tag (and therefore in
		// every metrics line); the default keeps the historical name.
		tag += "," + name
	}
	s.name = fmt.Sprintf("LightTrader[%s,N=%d,%s]",
		cfg.Sched.Kernel.ModelName, cfg.NumAccels, tag)
	return s, nil
}

// Name implements sim.SystemModel.
func (s *System) Name() string { return s.name }

// Reset implements sim.SystemModel.
func (s *System) Reset() {
	s.policy = s.cfg.Scheduler(&s.cfg.Sched)
	s.queue = s.queue[:0]
	s.board.Reset()
	s.batches = make([][]sim.Query, s.cfg.NumAccels)
	s.pending = nil
	s.lastNow = 0
	s.energyJ = 0
	s.lastEnergyAt = 0
	s.energyStart = false
}

// MaxObservedPowerWatts returns the highest instantaneous accelerator draw
// seen since Reset — the quantity the card's power budget constrains.
func (s *System) MaxObservedPowerWatts() float64 { return s.board.MaxDraw() }

// EnergyJoules implements sim.EnergyReporter.
func (s *System) EnergyJoules() float64 { return s.energyJ }

// SetProbe implements sim.Instrumentable.
func (s *System) SetProbe(p sim.Probe) { s.probe = p }

// emitQuery/emitDVFS/sample forward events to the attached probe.
func (s *System) emitQuery(e sim.QueryEvent) {
	if s.probe != nil {
		s.probe.OnQueryEvent(e)
	}
}

func (s *System) emitDVFS(e sim.DVFSEvent) {
	if s.probe != nil {
		s.probe.OnDVFSEvent(e)
	}
}

// sample reports post-scheduling load and draw to the probe.
func (s *System) sample(now int64) {
	if s.probe == nil {
		return
	}
	s.probe.OnSample(sim.Sample{
		TimeNanos:  now,
		QueueDepth: len(s.queue),
		BusyAccels: s.board.BusyCount(),
		PowerWatts: s.board.Draw(),
	})
}

// accrueEnergy integrates accelerator power up to now.
func (s *System) accrueEnergy(now int64) {
	if !s.energyStart {
		s.lastEnergyAt = now
		s.energyStart = true
		return
	}
	dt := float64(now-s.lastEnergyAt) / 1e9
	if dt <= 0 {
		return
	}
	s.energyJ += s.board.Draw() * dt
	s.lastEnergyAt = now
}

// OnArrival implements sim.SystemModel.
func (s *System) OnArrival(now int64, q sim.Query) {
	s.accrueEnergy(now)
	s.lastNow = now
	if len(s.queue) >= s.cfg.MaxQueue {
		// Stale-tensor management: evict the oldest feature map.
		s.emitQuery(sim.QueryEvent{
			TimeNanos: now, Kind: sim.QueryEvict, Query: s.queue[0], Accel: -1,
		})
		s.pending = append(s.pending, sim.Completion{Query: s.queue[0], Dropped: true})
		s.queue = s.queue[1:]
	}
	s.queue = append(s.queue, q)
	s.schedule(now)
}

// NextEventTime implements sim.SystemModel.
func (s *System) NextEventTime() int64 {
	if len(s.pending) > 0 {
		return s.lastNow
	}
	if _, done, ok := s.board.EarliestDone(); ok {
		return done
	}
	return sim.NoEvent
}

// Advance implements sim.SystemModel.
func (s *System) Advance(now int64) []sim.Completion {
	s.accrueEnergy(now)
	s.lastNow = now
	out := s.pending
	s.pending = nil
	for i, batch := range s.batches {
		if a := s.board.Slot(i); a.Busy && a.DoneNanos <= now {
			for _, q := range batch {
				out = append(out, sim.Completion{Query: q, DoneNanos: a.DoneNanos, Batch: len(batch)})
			}
			s.batches[i] = nil
			s.board.Retire(i, now)
		}
	}
	s.schedule(now)
	return out
}

// schedule runs the board's admission step over the shared FIFO for each
// idle accelerator in turn (Algorithm 1 under the default PPW policy, with
// the power-saving retry allowed at most once per accelerator per call),
// deferring the oldest query on every refusal, then the board redistributes
// residual budget once, after every accelerator has had its turn.
func (s *System) schedule(now int64) {
	for i := range s.batches {
		if s.board.Slot(i).Busy {
			continue
		}
		savedPower := false
		for len(s.queue) > 0 {
			oldest := s.queue[0]
			avail := oldest.Remaining(now) - s.cfg.PrePipelineNanos
			dec, saved := s.board.Admit(i, now, len(s.queue), avail, s.cfg.NumAccels-s.board.BusyCount(),
				s.policy, nil, !savedPower, s.minDeadline)
			if saved {
				savedPower = true
			}
			if dec.Verdict != sched.VerdictIssued {
				// Defer the oldest tensor to the conventional pipeline,
				// attributed to the scheduler's decision reason.
				s.emitQuery(sim.QueryEvent{
					TimeNanos: now, Kind: sim.QueryDefer, Query: oldest,
					Accel: -1, Cause: dec.Verdict.DeferCause(),
				})
				s.pending = append(s.pending, sim.Completion{Query: oldest, Dropped: true})
				s.queue = s.queue[1:]
				continue
			}
			batch := make([]sim.Query, dec.Issue.Batch)
			copy(batch, s.queue[:dec.Issue.Batch])
			s.queue = s.queue[dec.Issue.Batch:]
			s.batches[i] = batch
			if s.probe != nil {
				done := s.board.Slot(i).DoneNanos
				for _, q := range batch {
					s.emitQuery(sim.QueryEvent{
						TimeNanos: now, Kind: sim.QueryIssue, Query: q,
						Accel: i, Batch: dec.Issue.Batch, DoneNanos: done,
					})
				}
			}
			break
		}
	}
	s.board.Redistribute(now, len(s.queue))
	s.sample(now)
}

// minDeadline returns the earliest deadline over the first n queued queries
// — the slack bound the board records for the batch it is committing.
func (s *System) minDeadline(n int) int64 {
	min := s.queue[0].DeadlineNanos
	for _, q := range s.queue[1:n] {
		if q.DeadlineNanos < min {
			min = q.DeadlineNanos
		}
	}
	return min
}
