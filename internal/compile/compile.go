// Package compile is the deep-learning compiler of the LightTrader software
// stack (paper §III-E): it lowers an nn.Model onto the CGRA accelerator,
// partitioning the network into hyperblocks, mapping each onto the PE grid,
// and deriving cycle, memory-traffic and power-activity estimates that the
// scheduler and simulator consume. The mapping follows §III-C's strategy:
// instruction-level parallelism inside a hyperblock first, thread-level
// parallelism for fused ops second, and minimal batch-level parallelism so
// inference latency is batch-insensitive while spare PEs absorb small
// batches.
package compile

import (
	"fmt"

	"lighttrader/internal/cgra"
	"lighttrader/internal/nn"
)

// Compile lowers a model for the given accelerator spec at the default
// BF16 precision.
func Compile(m *nn.Model, spec cgra.Spec) (*cgra.Kernel, error) {
	return CompileFor(m, spec, cgra.PrecisionBF16)
}

// CompileFor lowers a model at the given execution precision. INT8 kernels
// run matmul-class hyperblocks on the 4×-wider low-precision lanes and
// halve tensor storage/transfer, trading accuracy for latency (§III-C).
func CompileFor(m *nn.Model, spec cgra.Spec, prec cgra.Precision) (*cgra.Kernel, error) {
	if _, err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	lspec := spec
	lspec.SIMDLanes = spec.SIMDLanes * prec.LaneMultiplier()
	// The FMT streams bytes: halving the element size (BF16→INT8) doubles
	// its element throughput, so layout passes (im2col unfolds, flatten,
	// CHW→sequence transposes) ride the narrower datatype too.
	lspec.FMTBandwidth = spec.FMTBandwidth * 2 / int(prec.ElementBytes())
	k := &cgra.Kernel{ModelName: m.Name(), Precision: prec}
	shape := m.InputShape
	inShape := m.InputShape
	for i, layer := range m.Layers {
		// A leading lookback crop is free on the wire: the host holds the
		// full feature window contiguously, so the C2C DMA simply starts at
		// the crop offset and only the kept rows transfer — no FMT layout
		// pass, and InputBytes shrinks with the lookback. Crops deeper in
		// the stack still stream through the FMT like any layout change.
		if i == 0 {
			if wc, ok := layer.(nn.WindowCrop); ok {
				next, err := wc.OutShape(shape)
				if err != nil {
					return nil, fmt.Errorf("compile: %s layer %d: %w", m.Name(), i, err)
				}
				shape, inShape = next, next
				continue
			}
		}
		// Matmul-class lowering sees the widened lanes. Nonlinearities in
		// the quantised path become 256-entry table lookups, so EPE-class
		// work rides the same 4× lane widening; only FMT layout passes are
		// precision-independent.
		blocks, err := lower(layer, shape, lspec)
		if err != nil {
			return nil, fmt.Errorf("compile: %s layer %d: %w", m.Name(), i, err)
		}
		k.Blocks = append(k.Blocks, blocks...)
		next, err := layer.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("compile: %s layer %d: %w", m.Name(), i, err)
		}
		shape = next
	}
	eb := prec.ElementBytes()
	k.InputBytes = int64(prodInts(inShape)) * eb
	k.OutputBytes = int64(nn.NumClasses) * 2 // probabilities return in BF16
	k.WeightBytes = m.Params() * eb
	k.TotalFLOPs = m.TotalFLOPs()
	k.PeakActivationBytes = peakActivationBytes(m) * eb
	// Each hyperblock streams per-PE instruction sequences into the IMEM
	// queues; ~64 B per PE per block is the compiled footprint estimate.
	k.InstrBytes = int64(len(k.Blocks)) * int64(spec.GridRows*spec.GridCols) * 64
	if k.InstrBytes > int64(spec.IMEMBytes) {
		return nil, fmt.Errorf("compile: %s instruction footprint %d B exceeds IMEM %d B",
			m.Name(), k.InstrBytes, spec.IMEMBytes)
	}
	// Double-buffered working set: resident weights plus two activation
	// buffers. Beyond DMEM the activations spill to L2 over C2C, slowing
	// the memory-bound path by the DMEM:C2C bandwidth ratio (~8×).
	if k.WeightBytes+2*k.PeakActivationBytes > int64(spec.DMEMBytes) {
		k.SpillsToL2 = true
		for i := range k.Blocks {
			k.Blocks[i].MemCycles *= 8
		}
	}
	k.Activity = activity(k, spec)
	return k, nil
}

// peakActivationBytes finds the largest inter-layer tensor, in elements.
func peakActivationBytes(m *nn.Model) int64 {
	shape := m.InputShape
	peak := int64(prodInts(shape))
	for _, l := range m.Layers {
		next, err := l.OutShape(shape)
		if err != nil {
			break
		}
		if n := int64(prodInts(next)); n > peak {
			peak = n
		}
		shape = next
	}
	return peak
}

func prodInts(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// lower maps one layer to hyperblocks.
func lower(layer nn.Layer, in []int, spec cgra.Spec) ([]cgra.Hyperblock, error) {
	out, err := layer.OutShape(in)
	if err != nil {
		return nil, err
	}
	switch l := layer.(type) {
	case *nn.Conv2D:
		outElems := prodInts(out)
		K := l.InC * l.KH * l.KW
		hb := matmulBlock(layer.Name(), outElems, K, spec)
		hb.MemCycles = memCycles(spec,
			int64(prodInts(in))*2, // activations in
			int64(outElems)*2,     // activations out
			l.Params()*2)          // weights (streamed once, amortised)
		// The FMT unfolds the input into the [K, oh·ow] im2col patch matrix
		// feeding the matmul pass, mirroring the host backend's lowering
		// (nn.Conv2D.ForwardCtx); a 1×1 stride-1 unpadded convolution reads
		// the activations in place and skips the unfold.
		if !(l.KH == 1 && l.KW == 1 && l.SH == 1 && l.SW == 1 && l.PadH == 0 && l.PadW == 0) {
			patches := K * out[1] * out[2]
			hb.FMTCycles += int64((patches + spec.FMTBandwidth - 1) / spec.FMTBandwidth)
		}
		hb.NeedsEPE = actNeedsEPE(l.Act)
		hb.FLOPs = l.FLOPs(in)
		return []cgra.Hyperblock{hb}, nil
	case *nn.Dense:
		hb := matmulBlock(layer.Name(), l.Out, l.In, spec)
		hb.MemCycles = memCycles(spec, int64(l.In)*2, int64(l.Out)*2, l.Params()*2)
		hb.NeedsEPE = actNeedsEPE(l.Act)
		hb.FLOPs = l.FLOPs(in)
		return []cgra.Hyperblock{hb}, nil
	case *nn.MaxPool2D:
		return []cgra.Hyperblock{elementwiseBlock(layer.Name(), prodInts(out)*l.KH*l.KW, false, layer.FLOPs(in), spec)}, nil
	case *nn.LSTM:
		return []cgra.Hyperblock{lowerLSTM(l, in, spec)}, nil
	case *nn.TransformerBlock:
		return []cgra.Hyperblock{lowerTransformer(l, in, spec)}, nil
	case *nn.LayerNorm:
		return []cgra.Hyperblock{elementwiseBlock(layer.Name(), prodInts(in)*2, true, layer.FLOPs(in), spec)}, nil
	case nn.PositionalEncoding:
		return []cgra.Hyperblock{elementwiseBlock(layer.Name(), prodInts(in), false, layer.FLOPs(in), spec)}, nil
	case nn.SoftmaxLayer:
		return []cgra.Hyperblock{elementwiseBlock(layer.Name(), prodInts(in)*2, true, layer.FLOPs(in), spec)}, nil
	case nn.Flatten, nn.SeqFromCHW:
		return []cgra.Hyperblock{formatBlock(layer.Name(), prodInts(in), spec)}, nil
	case nn.WindowCrop:
		// The lookback crop streams the kept rows through the FMT.
		return []cgra.Hyperblock{formatBlock(layer.Name(), prodInts(out), spec)}, nil
	case *nn.Inception:
		var blocks []cgra.Hyperblock
		for bi, branch := range l.Branches {
			cur := in
			for li, bl := range branch {
				sub, err := lower(bl, cur, spec)
				if err != nil {
					return nil, fmt.Errorf("inception branch %d layer %d: %w", bi, li, err)
				}
				for i := range sub {
					sub[i].Name = fmt.Sprintf("inception.b%d.%s", bi, sub[i].Name)
				}
				blocks = append(blocks, sub...)
				next, err := bl.OutShape(cur)
				if err != nil {
					return nil, err
				}
				cur = next
			}
		}
		// Concatenation is a layout pass through the FMT.
		blocks = append(blocks, formatBlock("inception.concat", prodInts(out), spec))
		return blocks, nil
	default:
		// Unknown layer: conservative FLOPs-based estimate at half peak.
		fl := layer.FLOPs(in)
		return []cgra.Hyperblock{{
			Name: layer.Name(), Kind: cgra.KindMatmul,
			ComputeCycles: fl/(spec.FLOPsPerCycle()/2) + 1,
			ParallelBatch: 1, FLOPs: fl,
		}}, nil
	}
}

// matmulBlock maps outElems independent dot products of length K onto the
// grid: each regular PE evaluates one output element with SIMDLanes MACs
// per cycle, so a full-grid pass retires RegularPEs outputs every
// ceil(K/lanes) cycles.
func matmulBlock(name string, outElems, K int, spec cgra.Spec) cgra.Hyperblock {
	pes := spec.RegularPEs()
	passes := (outElems + pes - 1) / pes
	laneChunks := (K + spec.SIMDLanes - 1) / spec.SIMDLanes
	pb := 1
	if outElems < pes {
		pb = pes / outElems
	}
	return cgra.Hyperblock{
		Name: name, Kind: cgra.KindMatmul,
		ComputeCycles: int64(passes) * int64(laneChunks),
		ParallelBatch: pb,
	}
}

// elementwiseBlock maps elementwise work across PEs (or EPEs for
// exponential-class ops).
func elementwiseBlock(name string, ops int, epe bool, flops int64, spec cgra.Spec) cgra.Hyperblock {
	lanes := spec.RegularPEs() * spec.SIMDLanes
	perOp := 1
	if epe {
		lanes = spec.EPEs() * spec.SIMDLanes
		perOp = 8 // exponential evaluation
	}
	cycles := int64((ops*perOp + lanes - 1) / lanes)
	if cycles == 0 {
		cycles = 1
	}
	return cgra.Hyperblock{
		Name: name, Kind: cgra.KindElementwise,
		ComputeCycles: cycles, ParallelBatch: 1, NeedsEPE: epe, FLOPs: flops,
	}
}

// formatBlock models layout transformation streaming through the FMT.
func formatBlock(name string, elems int, spec cgra.Spec) cgra.Hyperblock {
	return cgra.Hyperblock{
		Name: name, Kind: cgra.KindFormat,
		FMTCycles:     int64((elems + spec.FMTBandwidth - 1) / spec.FMTBandwidth),
		ParallelBatch: 1,
	}
}

// lowerLSTM maps the recurrent block: the time loop is sequential, so the
// per-step gate matmul, EPE nonlinearities and a cross-PE dependency stall
// are paid T times.
func lowerLSTM(l *nn.LSTM, in []int, spec cgra.Spec) cgra.Hyperblock {
	T := in[0]
	H := l.Hidden
	gateOut := 4 * H
	K := l.In + H
	pes := spec.RegularPEs()
	passes := (gateOut + pes - 1) / pes
	laneChunks := (K + spec.SIMDLanes - 1) / spec.SIMDLanes
	gateCycles := int64(passes) * int64(laneChunks)
	epeLanes := spec.EPEs() * spec.SIMDLanes
	// 5H nonlinear evaluations (3 sigmoid, 2 tanh) at 8 cycles each.
	epeCycles := int64((5*H*8 + epeLanes - 1) / epeLanes)
	const depStall = 24 // h_{t-1} forwarding across the grid
	stepCycles := gateCycles + epeCycles + depStall
	// Weights stay resident in DMEM; per-step activation traffic only.
	mem := memCycles(spec, int64(T*(l.In+H))*2, int64(T*H)*2, 0)
	return cgra.Hyperblock{
		Name: l.Name(), Kind: cgra.KindRecurrent,
		ComputeCycles: int64(T) * stepCycles,
		MemCycles:     mem,
		ParallelBatch: 1, // batch shares the grid with the sequential loop
		NeedsEPE:      true,
		FLOPs:         l.FLOPs(in),
	}
}

// lowerTransformer maps one encoder block: four projections, the attention
// score/softmax/context stages, and the feed-forward pair.
func lowerTransformer(b *nn.TransformerBlock, in []int, spec cgra.Spec) cgra.Hyperblock {
	T := in[0]
	D := b.Dim
	headDim := D / b.Heads
	proj := matmulBlock("proj", T*D, D, spec).ComputeCycles * 4
	scores := matmulBlock("scores", T*T*b.Heads, headDim, spec).ComputeCycles
	context := matmulBlock("context", T*D, T, spec).ComputeCycles
	ff := matmulBlock("ff1", T*b.FF, D, spec).ComputeCycles +
		matmulBlock("ff2", T*D, b.FF, spec).ComputeCycles
	epeLanes := spec.EPEs() * spec.SIMDLanes
	softmax := int64((T*T*b.Heads*8 + epeLanes - 1) / epeLanes)
	ln := int64((2*T*D*8 + epeLanes - 1) / epeLanes)
	mem := memCycles(spec, int64(T*D)*2*4, int64(T*D)*2, b.Params()*2)
	return cgra.Hyperblock{
		Name: b.Name(), Kind: cgra.KindMatmul,
		ComputeCycles: proj + scores + context + ff + softmax + ln,
		MemCycles:     mem,
		ParallelBatch: 1,
		NeedsEPE:      true,
		FLOPs:         b.FLOPs(in),
	}
}

// memCycles converts streamed bytes into DMEM stall cycles. Weights are
// amortised: resident parameters transfer once per kernel load, so only a
// small refresh share (1/8) counts against steady-state inference.
func memCycles(spec cgra.Spec, inBytes, outBytes, weightBytes int64) int64 {
	streamed := inBytes + outBytes + weightBytes/8
	return streamed / int64(spec.DMEMBandwidth)
}

func actNeedsEPE(a nn.Activation) bool { return a == nn.ActTanh || a == nn.ActSigmoid }

// controlActivity is the switching activity of the control fabric and
// interface logic during hyperblock issue (runtime sync), when the tensor
// datapath is quiescent.
const controlActivity = 0.08

// activity derives the power-model activity factor: a busy-period-weighted
// blend of datapath activity (grid utilisation, EPE duty, memory traffic)
// during hyperblock execution and control-fabric activity during hyperblock
// issue overhead.
func activity(k *cgra.Kernel, spec cgra.Spec) float64 {
	var cycles, epeCycles, memC int64
	for i := range k.Blocks {
		c := k.Blocks[i].Cycles(1)
		cycles += c
		if k.Blocks[i].NeedsEPE {
			epeCycles += c
		}
		memC += k.Blocks[i].MemCycles
	}
	if cycles == 0 {
		return controlActivity
	}
	util := float64(k.TotalFLOPs) / float64(cycles) / float64(spec.FLOPsPerCycle())
	if util > 1 {
		util = 1
	}
	epe := float64(epeCycles) / float64(cycles)
	mem := float64(memC) / float64(cycles)
	if mem > 1 {
		mem = 1
	}
	datapath := 0.5*util + 0.3*epe + 0.2*mem
	overhead := spec.BlockOverheadCycles * int64(len(k.Blocks))
	a := (datapath*float64(cycles) + controlActivity*float64(overhead)) /
		float64(cycles+overhead)
	if a > 1 {
		a = 1
	}
	return a
}
