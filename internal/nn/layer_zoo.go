package nn

import (
	"fmt"
	"math/rand"

	"lighttrader/internal/tensor"
)

// WindowCrop keeps the most recent Rows rows of a [C,H,W] activation. It is
// the zoo's lookback knob: every variant keeps the full [1,Window,Features]
// input contract with the offload engine while the downstream stack consumes
// only the newest Rows tick snapshots.
type WindowCrop struct{ Rows int }

// Name implements Layer.
func (wc WindowCrop) Name() string { return fmt.Sprintf("crop(last %d)", wc.Rows) }

// OutShape implements Layer.
func (wc WindowCrop) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: crop expects rank 3, got %v", in)
	}
	if wc.Rows <= 0 || wc.Rows > in[1] {
		return nil, fmt.Errorf("nn: crop(last %d) outside window height %d", wc.Rows, in[1])
	}
	return []int{in[0], wc.Rows, in[2]}, nil
}

// ForwardCtx implements Layer: rows within a channel are contiguous, so the
// crop is one copy per channel. The crop of a window moved up a row is the
// last crop moved up a row, so the output carries the input's stream stamp.
func (wc WindowCrop) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	out := newTensor(p, c, wc.Rows, w)
	xf, of := x.Data(), out.Data()
	for ci := 0; ci < c; ci++ {
		copy(of[ci*wc.Rows*w:(ci+1)*wc.Rows*w], xf[(ci*h+h-wc.Rows)*w:(ci*h+h)*w])
	}
	out.SetStamp(x.Stamp())
	return out
}

// FLOPs implements Layer.
func (WindowCrop) FLOPs([]int) int64 { return 0 }

// Params implements Layer.
func (WindowCrop) Params() int64 { return 0 }

// Init implements Layer.
func (WindowCrop) Init(*rand.Rand) {}

// Backward implements Backprop: the gradient routes to the kept rows and the
// dropped (older) rows receive zero.
func (wc WindowCrop) Backward(input, _, gradOut *tensor.Tensor) *tensor.Tensor {
	c, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	gradIn := tensor.New(c, h, w)
	gf, gof := gradIn.Data(), gradOut.Data()
	for ci := 0; ci < c; ci++ {
		copy(gf[(ci*h+h-wc.Rows)*w:(ci*h+h)*w], gof[ci*wc.Rows*w:(ci+1)*wc.Rows*w])
	}
	return gradIn
}

// Update implements Backprop (no parameters).
func (WindowCrop) Update(float32) {}
