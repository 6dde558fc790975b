// Package offload implements the offload engine of paper §III-A / Fig. 5:
// it converts limit-order-book snapshots into BF16 feature vectors,
// Z-score-normalises them against statistics profiled from historical
// data, stacks the most recent Window vectors into the two-dimensional
// input feature map the DNN models consume — lent in place, stamped with its
// stream position — so feature-map generation copies nothing per tick.
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

// InputTensor is a feature map the consumer owns, with the time of the
// snapshot that completed it.
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
	// first, and lending it (Window) copies nothing.
	ring  []float32 // flat, 2·Window·Features
	head  int       // next write slot, in [0, Window)
	count int
	// views[h] is the [1,Window,Features] tensor over the window that starts
	// at slot h, so Window allocates nothing either.
	views [nn.Window]*tensor.Tensor
	// src and pushes are the window's stream stamp: one source per engine,
	// and a position that advances by one with every Push, which moves the
	// window up a row.
	src, pushes uint64
	last        int64 // TimeNanos of the last Push
	popped      bool  // Pop has copied the current window
	// free is the freelist Pop draws its copies from: feature maps the
	// consumer has Recycled, at most maxFree of them.
	free    []*tensor.Tensor
	maxFree int
}

// NewEngine builds an offload engine; maxFree bounds the freelist of
// recycled feature maps. maxFree ≤ 0 means 64.
func NewEngine(norm Normalizer, maxFree int) *Engine {
	if maxFree <= 0 {
		maxFree = 64
	}
	e := &Engine{
		norm:    norm,
		ring:    make([]float32, 2*nn.Window*nn.Features),
		src:     tensor.NewStampSource(),
		maxFree: maxFree,
	}
	for h := range e.views {
		e.views[h] = tensor.FromSlice(e.ring[h*nn.Features:(h+nn.Window)*nn.Features], 1, nn.Window, nn.Features)
	}
	return e
}

// Push ingests one book snapshot: it writes the snapshot's feature row and
// nothing else.
func (e *Engine) Push(snap lob.Snapshot) {
	raw := snap.Features()
	e.norm.Apply(&raw)
	const f = nn.Features
	row := e.ring[e.head*f : (e.head+1)*f : (e.head+1)*f]
	alt := e.ring[(e.head+nn.Window)*f : (e.head+nn.Window+1)*f]
	e.views[e.head].SetStamp(0, 0) // the window lent until now changes under it
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
	e.pushes++
	e.last = snap.TimeNanos
	e.popped = false
}

// Window lends the current feature map, [1,Window,Features] oldest row first,
// without copying it: the tensor is the engine's, and valid only until the
// next Push. It is stamped (tensor.SetStamp) with the engine's source and the
// push count, so the window after the next Push — this one moved up a row —
// carries the next position. Window returns nil until the window has filled.
func (e *Engine) Window() *tensor.Tensor {
	if !e.Warm() {
		return nil
	}
	t := e.views[e.head]
	t.SetStamp(e.src, e.pushes)
	return t
}

// Pop returns an owned, unstamped copy of the current window — the DMA
// hand-off to a consumer that keeps it past the next Push — once per Push;
// ok is false before the window fills and once the current window has been
// popped. The copy reuses a Recycled tensor when one is available.
func (e *Engine) Pop() (in InputTensor, ok bool) {
	if !e.Warm() || e.popped {
		return InputTensor{}, false
	}
	e.popped = true
	var t *tensor.Tensor
	if n := len(e.free); n > 0 {
		t = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		t = tensor.New(1, nn.Window, nn.Features)
	}
	copy(t.Data(), e.ring[e.head*nn.Features:(e.head+nn.Window)*nn.Features])
	return InputTensor{TimeNanos: e.last, Tensor: t}, true
}

// Recycle returns a popped feature map to the engine's freelist once the
// consumer is done with it; Pop reuses the storage. Tensors of the wrong
// shape and excess tensors beyond the freelist bound are simply dropped for
// the garbage collector.
func (e *Engine) Recycle(t *tensor.Tensor) {
	if t == nil || t.Size() != nn.Window*nn.Features || len(e.free) >= e.maxFree {
		return
	}
	e.free = append(e.free, t)
}

// Warm reports whether the window has filled and tensors can be produced.
func (e *Engine) Warm() bool { return e.count >= nn.Window }

// String summarises engine state for diagnostics.
func (e *Engine) String() string {
	return fmt.Sprintf("offload{window %d/%d, pushes %d}", e.count, nn.Window, e.pushes)
}
