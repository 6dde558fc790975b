// Package baseline models the two comparison systems of paper §II-D/IV-A:
// the GPU-based system (Intel i7-11700 + XtremeScale X2522 NIC + NVIDIA
// Tesla V100) and the FPGA-based system (i7-11700 + Alveo U250). Both are
// profiled-latency queueing models behind the same sim.SystemModel
// interface as LightTrader, per the DESIGN.md substitution table: the
// GPU column is dominated by per-layer kernel dispatch through the
// framework/driver stack plus PCIe and NIC/CPU hops, and the FPGA column by
// its limited effective FLOPS.
package baseline

import (
	"fmt"

	"lighttrader/internal/nn"
	"lighttrader/internal/sim"
)

// Profile is a system's profiled service behaviour for one model.
type Profile struct {
	Name string
	// ServiceNanos is the batch-1 end-to-end processing time: network and
	// host hops, dispatch, transfer and compute.
	ServiceNanos int64
	// BusyWatts/IdleWatts are system-level draws (accelerator + host).
	BusyWatts, IdleWatts float64
}

// GPU latency-model constants.
const (
	// gpuFixedNanos covers NIC→CPU ingress, pre/post-processing on the
	// host, and PCIe input/output transfers.
	gpuFixedNanos = 300_000
	// gpuDispatchNanos is the per-layer kernel-launch cost through the
	// framework and driver stack.
	gpuDispatchNanos = 200_000
	// gpuEffFLOPS is sustained batch-1 throughput: ~1% of the V100's
	// 125 TFLOPS tensor peak, the utilisation small single-query HFT
	// networks achieve (§II-D: "most job batch sizes in AI-enabled HFT are
	// set to single, so it is hard for GPU to achieve the best throughput
	// performance").
	gpuEffFLOPS = 1.25e12
	gpuBusyW    = 315 // V100 under mixed dispatch/compute + host
	gpuIdleW    = 95
)

// FPGA latency-model constants.
const (
	// fpgaFixedNanos covers NIC-less direct ingress, XDMA setup and host
	// orchestration of the U250 bitstream.
	fpgaFixedNanos = 400_000
	// fpgaEffFLOPS is the DSP-bound sustained throughput of the U250
	// inference overlay (§II-D: "FPGAs have limited computing resources").
	fpgaEffFLOPS = 12e9
	fpgaBusyW    = 170 // U250 under load + host
	fpgaIdleW    = 70
)

// GPUProfile profiles the GPU-based system for a model.
func GPUProfile(m *nn.Model) Profile {
	compute := int64(float64(m.TotalFLOPs()) / gpuEffFLOPS * 1e9)
	return Profile{
		Name:         "GPU-based",
		ServiceNanos: gpuFixedNanos + int64(len(m.Layers))*gpuDispatchNanos + compute,
		BusyWatts:    gpuBusyW,
		IdleWatts:    gpuIdleW,
	}
}

// FPGAProfile profiles the FPGA-based system for a model.
func FPGAProfile(m *nn.Model) Profile {
	compute := int64(float64(m.TotalFLOPs()) / fpgaEffFLOPS * 1e9)
	return Profile{
		Name:         "FPGA-based",
		ServiceNanos: fpgaFixedNanos + compute,
		BusyWatts:    fpgaBusyW,
		IdleWatts:    fpgaIdleW,
	}
}

// System is a single-server FIFO queueing model implementing
// sim.SystemModel with the paper's defer-on-infeasible drop rule.
type System struct {
	profile  Profile
	model    string
	maxQueue int

	queue   []sim.Query
	busy    bool
	doneAt  int64
	current sim.Query

	// probe observes queue events; nil outside instrumented runs.
	probe sim.Probe
}

var _ sim.SystemModel = (*System)(nil)
var _ sim.Loaded = (*System)(nil)
var _ sim.Instrumentable = (*System)(nil)

// NewSystem builds a baseline system for the given profile.
func NewSystem(p Profile, model string) *System {
	return &System{profile: p, model: model, maxQueue: 64}
}

// NewGPU builds the GPU-based system for a model.
func NewGPU(m *nn.Model) *System { return NewSystem(GPUProfile(m), m.Name()) }

// NewFPGA builds the FPGA-based system for a model.
func NewFPGA(m *nn.Model) *System { return NewSystem(FPGAProfile(m), m.Name()) }

// Profile exposes the profiled service behaviour.
func (s *System) Profile() Profile { return s.profile }

// Name implements sim.SystemModel.
func (s *System) Name() string { return fmt.Sprintf("%s[%s]", s.profile.Name, s.model) }

// Reset implements sim.SystemModel.
func (s *System) Reset() {
	s.queue = s.queue[:0]
	s.busy = false
}

// SetProbe implements sim.Instrumentable.
func (s *System) SetProbe(p sim.Probe) { s.probe = p }

func (s *System) emitQuery(e sim.QueryEvent) {
	if s.probe != nil {
		s.probe.OnQueryEvent(e)
	}
}

// Load implements sim.Loaded: the queue, and the one server busy at its
// busy draw or idle at its idle draw.
func (s *System) Load() sim.Sample {
	if s.busy {
		return sim.Sample{QueueDepth: len(s.queue), BusyAccels: 1, PowerWatts: s.profile.BusyWatts}
	}
	return sim.Sample{QueueDepth: len(s.queue), PowerWatts: s.profile.IdleWatts}
}

// OnArrival implements sim.SystemModel.
func (s *System) OnArrival(now int64, q sim.Query) []sim.Completion {
	var out []sim.Completion
	if len(s.queue) >= s.maxQueue {
		s.emitQuery(sim.QueryEvent{
			TimeNanos: now, Kind: sim.QueryEvict, Query: s.queue[0], Accel: -1,
		})
		out = append(out, sim.Completion{Query: s.queue[0], Dropped: true})
		s.queue = s.queue[1:]
	}
	s.queue = append(s.queue, q)
	return s.dispatch(now, out)
}

// dispatch starts service on the head query if the server is free,
// deferring queries that can no longer meet their deadline; it returns out
// with the deferred queries appended.
func (s *System) dispatch(now int64, out []sim.Completion) []sim.Completion {
	for !s.busy && len(s.queue) > 0 {
		head := s.queue[0]
		s.queue = s.queue[1:]
		if now+s.profile.ServiceNanos > head.DeadlineNanos {
			// The single fixed-latency server cannot finish in time: a
			// deadline-infeasible defer in the probe taxonomy.
			s.emitQuery(sim.QueryEvent{
				TimeNanos: now, Kind: sim.QueryDefer, Query: head,
				Accel: -1, Cause: sim.CauseDeadline,
			})
			out = append(out, sim.Completion{Query: head, Dropped: true})
			continue
		}
		s.busy = true
		s.current = head
		s.doneAt = now + s.profile.ServiceNanos
		s.emitQuery(sim.QueryEvent{
			TimeNanos: now, Kind: sim.QueryIssue, Query: head,
			Accel: 0, Batch: 1, DoneNanos: s.doneAt,
		})
	}
	return out
}

// NextEventTime implements sim.SystemModel.
func (s *System) NextEventTime() int64 {
	if s.busy {
		return s.doneAt
	}
	return sim.NoEvent
}

// Advance implements sim.SystemModel.
func (s *System) Advance(now int64) []sim.Completion {
	var out []sim.Completion
	if s.busy && s.doneAt <= now {
		out = append(out, sim.Completion{Query: s.current, DoneNanos: s.doneAt, Batch: 1})
		s.busy = false
	}
	return s.dispatch(now, out)
}
