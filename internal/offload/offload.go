// Package offload implements the offload engine of paper §III-A / Fig. 5:
// it converts limit-order-book snapshots into BF16 feature vectors,
// Z-score-normalises them against statistics profiled from historical
// data, stacks the most recent Window vectors into the two-dimensional
// input feature map the DNN models consume, and manages stale tensors so
// feature-map generation needs minimal storage.
package offload

import (
	"fmt"
	"math"

	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/tensor"
)

// Normalizer holds per-feature Z-score statistics (mean and standard
// deviation), obtained from historical market data as the paper describes.
type Normalizer struct {
	Mean [nn.Features]float64
	Std  [nn.Features]float64
}

// Calibrate computes Z-score statistics over a historical snapshot set.
// Zero-variance features get unit std so normalisation stays defined.
func Calibrate(snapshots []lob.Snapshot) Normalizer {
	var n Normalizer
	for i := range n.Std {
		n.Std[i] = 1
	}
	if len(snapshots) == 0 {
		return n
	}
	var sum, sumSq [nn.Features]float64
	for i := range snapshots {
		f := snapshots[i].Features()
		for j, v := range f {
			sum[j] += v
			sumSq[j] += v * v
		}
	}
	cnt := float64(len(snapshots))
	for j := range sum {
		mean := sum[j] / cnt
		variance := sumSq[j]/cnt - mean*mean
		n.Mean[j] = mean
		if variance > 1e-12 {
			n.Std[j] = math.Sqrt(variance)
		}
	}
	return n
}

// Apply normalises a raw feature vector in place.
func (n *Normalizer) Apply(f *[nn.Features]float64) {
	for j := range f {
		f[j] = (f[j] - n.Mean[j]) / n.Std[j]
	}
}

// InputTensor is a ready-to-offload feature map with its creation time for
// stale-tensor management.
type InputTensor struct {
	TimeNanos int64
	Tensor    *tensor.Tensor // [1, Window, Features], BF16-rounded
}

// Engine assembles feature maps tick by tick.
type Engine struct {
	norm Normalizer
	// ring stores the most recent Window feature vectors doubled: every
	// vector is written at slot h and h+Window, so the current window is
	// always the contiguous run ring[head·F : (head+Window)·F] oldest row
	// first, and buildTensor is a single memcpy instead of Window wrapped
	// row copies.
	ring  []float32 // flat, 2·Window·Features
	head  int       // next write slot, in [0, Window)
	count int
	// pending is the ready-tensor FIFO of Fig. 5, a fixed circular buffer:
	// pushes and pops move indices instead of reslicing, so the steady
	// state touches no allocator.
	pending  []InputTensor // cap maxPend, allocated once
	pendHead int
	pendLen  int
	maxPend  int
	dropped  int
	// free is the stale-tensor freelist: retired feature maps (consumed by
	// inference or evicted as stale) are reused by buildTensor, so
	// steady-state feature-map generation allocates nothing.
	free []*tensor.Tensor
}

// NewEngine builds an offload engine; maxPending bounds the ready-tensor
// FIFO (oldest evicted beyond it). maxPending ≤ 0 means 64.
func NewEngine(norm Normalizer, maxPending int) *Engine {
	if maxPending <= 0 {
		maxPending = 64
	}
	return &Engine{
		norm:    norm,
		ring:    make([]float32, 2*nn.Window*nn.Features),
		pending: make([]InputTensor, maxPending),
		maxPend: maxPending,
	}
}

// Push ingests one book snapshot. Once Window vectors have accumulated it
// enqueues a ready input tensor, evicting the oldest pending tensor if the
// FIFO is full.
func (e *Engine) Push(snap lob.Snapshot) {
	raw := snap.Features()
	e.norm.Apply(&raw)
	const f = nn.Features
	row := e.ring[e.head*f : (e.head+1)*f : (e.head+1)*f]
	alt := e.ring[(e.head+nn.Window)*f : (e.head+nn.Window+1)*f]
	for j, v := range raw {
		bf := tensor.RoundBF16(float32(v))
		row[j] = bf
		alt[j] = bf
	}
	e.head++
	if e.head == nn.Window {
		e.head = 0
	}
	if e.count < nn.Window {
		e.count++
	}
	if e.count < nn.Window {
		return
	}
	if e.pendLen == e.maxPend {
		e.Recycle(e.popFront().Tensor)
		e.dropped++
	}
	e.pushBack(InputTensor{TimeNanos: snap.TimeNanos, Tensor: e.buildTensor()})
}

// buildTensor copies the current window — one contiguous run of the
// doubled ring — into a model input, reusing a recycled tensor when one is
// available.
func (e *Engine) buildTensor() *tensor.Tensor {
	var t *tensor.Tensor
	if n := len(e.free); n > 0 {
		t = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		t = tensor.New(1, nn.Window, nn.Features)
	}
	copy(t.Data(), e.ring[e.head*nn.Features:(e.head+nn.Window)*nn.Features])
	return t
}

// pushBack appends to the circular pending FIFO (caller ensures room).
func (e *Engine) pushBack(in InputTensor) {
	i := e.pendHead + e.pendLen
	if i >= e.maxPend {
		i -= e.maxPend
	}
	e.pending[i] = in
	e.pendLen++
}

// popFront removes the oldest pending tensor (caller ensures non-empty).
func (e *Engine) popFront() InputTensor {
	in := e.pending[e.pendHead]
	e.pending[e.pendHead] = InputTensor{}
	e.pendHead++
	if e.pendHead == e.maxPend {
		e.pendHead = 0
	}
	e.pendLen--
	return in
}

// Pop removes and returns the oldest pending tensor without allocating;
// ok is false when none is ready. This is the hot-path form of PopBatch.
func (e *Engine) Pop() (in InputTensor, ok bool) {
	if e.pendLen == 0 {
		return InputTensor{}, false
	}
	return e.popFront(), true
}

// Dropped returns how many stale tensors were evicted since construction.
func (e *Engine) Dropped() int { return e.dropped }

// PopBatch removes and returns up to n pending tensors, oldest first —
// the DMA hand-off to an accelerator. It allocates the returned slice;
// allocation-sensitive callers should drain with Pop instead.
func (e *Engine) PopBatch(n int) []InputTensor {
	if n > e.pendLen {
		n = e.pendLen
	}
	batch := make([]InputTensor, n)
	for i := range batch {
		batch[i] = e.popFront()
	}
	return batch
}

// EvictOlderThan drops pending tensors created before cutoff (stale-tensor
// management for deadline-expired feature maps), returning the count.
func (e *Engine) EvictOlderThan(cutoff int64) int {
	n := 0
	for e.pendLen > 0 && e.pending[e.pendHead].TimeNanos < cutoff {
		e.Recycle(e.popFront().Tensor)
		n++
	}
	e.dropped += n
	return n
}

// Recycle returns a feature-map tensor to the engine's freelist once the
// consumer (inference) is done with it; buildTensor reuses the storage.
// Tensors of the wrong shape and excess tensors beyond the FIFO bound are
// simply dropped for the garbage collector.
func (e *Engine) Recycle(t *tensor.Tensor) {
	if t == nil || t.Size() != nn.Window*nn.Features || len(e.free) >= e.maxPend {
		return
	}
	e.free = append(e.free, t)
}

// Warm reports whether the window has filled and tensors can be produced.
func (e *Engine) Warm() bool { return e.count >= nn.Window }

// String summarises engine state for diagnostics.
func (e *Engine) String() string {
	return fmt.Sprintf("offload{window %d/%d, pending %d, dropped %d}",
		e.count, nn.Window, e.pendLen, e.dropped)
}
