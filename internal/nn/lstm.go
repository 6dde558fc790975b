package nn

import (
	"fmt"
	"math/rand"

	"lighttrader/internal/tensor"
)

// LSTM is a single-layer long short-term memory over a [T,D] sequence.
// With ReturnLast set it emits only the final hidden state [H]; otherwise
// the full hidden sequence [T,H].
type LSTM struct {
	In, Hidden int
	ReturnLast bool

	// Gate weights, packed i|f|g|o: wx [4H, D], wh [4H, H], b [4H].
	wx *tensor.Tensor
	wh *tensor.Tensor
	b  []float32

	// Accumulated gradients (allocated lazily on first Backward).
	gwx *tensor.Tensor
	gwh *tensor.Tensor
	gb  []float32

	// wt holds [wx | wh] a second time, transposed into the layout
	// tensor.MulAddPanel reads — [D+H, 4H]: row p < D is column p of wx, row
	// D+p column p of wh — so each time step is one [x_t,h]·wt panel
	// multiply. Like Dense.wt it is packed where the weights are written
	// (Init, Update, repack) and only read by the forward pass.
	wt []float32
}

// NewLSTM constructs an LSTM layer.
func NewLSTM(in, hidden int, returnLast bool) *LSTM {
	return &LSTM{
		In: in, Hidden: hidden, ReturnLast: returnLast,
		wx: tensor.New(4*hidden, in),
		wh: tensor.New(4*hidden, hidden),
		b:  make([]float32, 4*hidden),
		wt: make([]float32, (in+hidden)*4*hidden),
	}
}

// Name implements Layer.
func (l *LSTM) Name() string { return fmt.Sprintf("lstm(%d→%d)", l.In, l.Hidden) }

// OutShape implements Layer.
func (l *LSTM) OutShape(in []int) ([]int, error) {
	if len(in) != 2 || in[1] != l.In {
		return nil, fmt.Errorf("nn: %s expects [T,%d], got %v", l.Name(), l.In, in)
	}
	if l.ReturnLast {
		return []int{l.Hidden}, nil
	}
	return []int{in[0], l.Hidden}, nil
}

// repack rebuilds wt from wx and wh. Whatever writes either calls it before
// the next forward pass (`make one-impl-check` holds non-test code to that).
func (l *LSTM) repack() {
	D, H := l.In, l.Hidden
	packColumns(l.wt, 4*H, 0, l.wx.Data(), 4*H, D)
	packColumns(l.wt, 4*H, D, l.wh.Data(), 4*H, H)
}

// ForwardCtx implements Layer. Each time step concatenates [x_t, h_{t-1}],
// computes all 4H gate pre-activations as one panel multiply over the packed
// weights plus the bias, then applies the fused gate nonlinearities.
func (l *LSTM) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s expects [T,%d], got %v", l.Name(), l.In, x.Shape()))
	}
	T, D, H := x.Dim(0), l.In, l.Hidden
	xh := newSlice(p, D+H)
	c := newSlice(p, H)
	gates := newSlice(p, 4*H)
	h := xh[D:] // the hidden state lives inside the concat buffer
	var seq *tensor.Tensor
	if !l.ReturnLast {
		seq = newTensor(p, T, H)
	}
	xf := x.Data()
	gi, gf_, gg, go_ := gates[:H], gates[H:2*H], gates[2*H:3*H], gates[3*H:4*H]
	for t := 0; t < T; t++ {
		copy(xh[:D], xf[t*D:(t+1)*D])
		clear(gates)
		tensor.MulAddPanel(xh, l.wt, 4*H, gates)
		for j, bv := range l.b {
			gates[j] += bv
		}
		for j := 0; j < H; j++ {
			i := sigmoid32(gi[j])
			f := sigmoid32(gf_[j])
			g := tanh32(gg[j])
			o := sigmoid32(go_[j])
			c[j] = f*c[j] + i*g
			h[j] = o * tanh32(c[j])
		}
		if seq != nil {
			copy(seq.Data()[t*H:(t+1)*H], h)
		}
	}
	if l.ReturnLast {
		out := newTensor(p, H)
		copy(out.Data(), h)
		return out
	}
	return seq
}

// FLOPs implements Layer.
func (l *LSTM) FLOPs(in []int) int64 {
	if len(in) != 2 {
		return 0
	}
	T := int64(in[0])
	H := int64(l.Hidden)
	D := int64(l.In)
	perStep := 4*H*(D+H)*2 + // gate matmuls
		H*(3*8+8+4) // three sigmoids, two tanh (8 each), elementwise updates
	return T * perStep
}

// Params implements Layer.
func (l *LSTM) Params() int64 {
	H, D := int64(l.Hidden), int64(l.In)
	return 4*H*D + 4*H*H + 4*H
}

// Init implements Layer.
func (l *LSTM) Init(rng *rand.Rand) {
	l.wx.FillRandn(rng, sqrt64(1/float64(l.In)))
	l.wh.FillRandn(rng, sqrt64(1/float64(l.Hidden)))
	for i := range l.b {
		l.b[i] = 0
	}
	// Forget-gate bias of 1 for stable gradients, standard practice.
	for j := 0; j < l.Hidden; j++ {
		l.b[l.Hidden+j] = 1
	}
	l.repack()
}
