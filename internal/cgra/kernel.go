package cgra

import "fmt"

// Precision selects the execution data type (§III-C): BF16 is the default
// for accuracy across irregular HFT networks; INT8 runs on the 4×-wider
// low-precision SIMD lanes when latency is prioritised over accuracy.
type Precision uint8

const (
	// PrecisionBF16 is the accelerator's main computational precision.
	PrecisionBF16 Precision = iota
	// PrecisionINT8 quadruples matmul lane width at reduced accuracy.
	PrecisionINT8
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case PrecisionBF16:
		return "bf16"
	case PrecisionINT8:
		return "int8"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(p))
	}
}

// LaneMultiplier returns the SIMD width factor relative to BF16.
func (p Precision) LaneMultiplier() int {
	if p == PrecisionINT8 {
		return 4
	}
	return 1
}

// ElementBytes returns the storage size per tensor element.
func (p Precision) ElementBytes() int64 {
	if p == PrecisionINT8 {
		return 1
	}
	return 2
}

// BlockKind classifies a hyperblock's execution character, which determines
// how it scales with batch size and which resources it stresses.
type BlockKind uint8

const (
	// KindMatmul covers convolutions, dense layers and attention
	// projections: data-parallel inner products mapped across the grid.
	KindMatmul BlockKind = iota
	// KindRecurrent covers time-sequential blocks (LSTM steps): the time
	// loop cannot be parallelised, only the per-step work.
	KindRecurrent
	// KindElementwise covers activations, pooling, residual adds, norms.
	KindElementwise
	// KindFormat covers pure layout transformation through the FMT.
	KindFormat
)

// String implements fmt.Stringer.
func (k BlockKind) String() string {
	switch k {
	case KindMatmul:
		return "matmul"
	case KindRecurrent:
		return "recurrent"
	case KindElementwise:
		return "elementwise"
	case KindFormat:
		return "format"
	default:
		return fmt.Sprintf("BlockKind(%d)", uint8(k))
	}
}

// Hyperblock is one schedulable unit produced by the compiler: a group of
// operations mapped together onto the PE grid, with batch-1 cycle costs.
type Hyperblock struct {
	Name string
	Kind BlockKind
	// ComputeCycles is the tensor-engine cycle count at batch 1.
	ComputeCycles int64
	// MemCycles is the DMEM/LSU transfer cycle count at batch 1; the block
	// runs in max(compute, mem) thanks to double buffering.
	MemCycles int64
	// FMTCycles is layout-transformation time not hidden behind compute.
	FMTCycles int64
	// ParallelBatch is how many batch elements the grid co-executes at no
	// extra cost (spare PEs), the source of batch-insensitive latency.
	ParallelBatch int
	// NeedsEPE marks blocks evaluating exponential-class functions.
	NeedsEPE bool
	// FLOPs is the arithmetic work at batch 1 (for utilisation accounting).
	FLOPs int64
}

// Cycles returns the block's cycle cost for the given batch size.
func (h *Hyperblock) Cycles(batch int) int64 {
	if batch < 1 {
		batch = 1
	}
	pb := h.ParallelBatch
	if pb < 1 {
		pb = 1
	}
	passes := int64((batch + pb - 1) / pb)
	compute := h.ComputeCycles * passes
	mem := h.MemCycles * int64(batch)
	cycles := compute
	if mem > cycles {
		cycles = mem
	}
	return cycles + h.FMTCycles
}

// Kernel is a compiled model image: the hyperblock schedule plus transfer
// and power metadata. Kernels are immutable after compilation and shared by
// all accelerators running the same model.
type Kernel struct {
	ModelName string
	// Precision is the execution data type the kernel was compiled for.
	Precision Precision
	Blocks    []Hyperblock
	// InputBytes is the C2C payload per batch element (BF16 feature map).
	InputBytes int64
	// OutputBytes is the C2C result payload per batch element.
	OutputBytes int64
	// WeightBytes is the resident parameter footprint in DMEM.
	WeightBytes int64
	// TotalFLOPs is the batch-1 arithmetic work.
	TotalFLOPs int64
	// Activity is the power-model activity factor in [0,1]: the
	// FLOP-weighted blend of grid utilisation, EPE duty and memory traffic
	// the compiler derives for this network.
	Activity float64
	// PeakActivationBytes is the largest inter-block activation footprint.
	PeakActivationBytes int64
	// InstrBytes estimates the compiled instruction-stream footprint.
	InstrBytes int64
	// SpillsToL2 marks kernels whose working set exceeds DMEM: activations
	// round-trip to the FPGA-side L2 over C2C (§III-C), which the compiler
	// reflects by inflating the affected blocks' memory cycles.
	SpillsToL2 bool
}

// CyclesForBatch sums hyperblock costs plus per-block issue overhead. The
// issue overhead grows with batch size — every extra sample adds DMA
// descriptors and per-sample synchronisation to the runtime hand-shake —
// at a quarter of the base cost per additional element, so batching
// improves throughput strongly but not freely.
func (k *Kernel) CyclesForBatch(spec Spec, batch int) int64 {
	if batch < 1 {
		batch = 1
	}
	overhead := spec.BlockOverheadCycles + spec.BlockOverheadCycles*int64(batch-1)/4
	var total int64
	for i := range k.Blocks {
		total += k.Blocks[i].Cycles(batch) + overhead
	}
	return total
}

// InferenceNanos returns the on-chip inference latency for a batch at a
// DVFS state, excluding C2C transfer (modelled by package c2c).
func (k *Kernel) InferenceNanos(spec Spec, d DVFSState, batch int) int64 {
	cycles := k.CyclesForBatch(spec, batch)
	return int64(float64(cycles) / d.FreqGHz)
}
