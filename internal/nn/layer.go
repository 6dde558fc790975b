// Package nn implements the neural networks the paper benchmarks: a vanilla
// CNN (Tsantekidis et al. 2017), DeepLOB (Zhang et al. 2019, CNN+LSTM) and
// TransLOB (Wallbridge 2020, CNN+Transformer), plus the M1…M5 complexity
// ladder of Fig. 8. The layers compute real forward passes (with optional
// BF16 rounding to mirror the accelerator's numerics) and report per-layer
// FLOP and parameter counts, which the compiler (internal/compile) lowers to
// accelerator cycle estimates.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"lighttrader/internal/tensor"
)

// Activation selects the nonlinearity applied by a layer.
type Activation uint8

const (
	// ActNone applies no nonlinearity.
	ActNone Activation = iota
	// ActReLU applies max(0,x).
	ActReLU
	// ActLeakyReLU applies x for x≥0, 0.01·x otherwise (DeepLOB's choice).
	ActLeakyReLU
	// ActTanh applies tanh.
	ActTanh
	// ActSigmoid applies the logistic function.
	ActSigmoid
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActReLU:
		return "relu"
	case ActLeakyReLU:
		return "leakyrelu"
	case ActTanh:
		return "tanh"
	case ActSigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("Activation(%d)", uint8(a))
	}
}

func tanh32(x float32) float32 {
	// Clamp to avoid overflow in exp; tanh saturates well before ±20.
	if x > 20 {
		return 1
	}
	if x < -20 {
		return -1
	}
	e2 := exp32(2 * x)
	return (e2 - 1) / (e2 + 1)
}

func sigmoid32(x float32) float32 {
	if x > 20 {
		return 1
	}
	if x < -20 {
		return 0
	}
	return 1 / (1 + exp32(-x))
}

func exp32(x float32) float32 {
	// Sufficient-precision expf via the standard library.
	return float32(exp64(float64(x)))
}

// Layer is one stage of a feed-forward network.
type Layer interface {
	// Name identifies the layer kind and main dimensions.
	Name() string
	// OutShape computes the output shape for an input shape, or an error if
	// the input is incompatible.
	OutShape(in []int) ([]int, error)
	// ForwardCtx computes the layer's output drawing all scratch and output
	// storage from p; results are valid only until p.Reset(). A nil pool
	// falls back to heap allocation. Implementations must not mutate x or
	// keep a reference to it or to the tensor they return — both are the
	// caller's to reuse and overwrite, and x may be a window the offload
	// engine lends. A layer may keep a private copy of its output (Conv2D and
	// MaxPool2D do, to answer the next call's shared rows when x's stream
	// stamp says it is the last input moved up a row; see tensor.SetStamp),
	// provided its output stays the function of x and its weights that a
	// layer which kept nothing would compute, bit for bit. The output is
	// unstamped unless the layer keeps the stamp's promise for it.
	ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor
	// FLOPs returns the floating-point operation count for one forward pass
	// at the given input shape (multiply and add counted separately).
	FLOPs(in []int) int64
	// Params returns the number of trainable parameters.
	Params() int64
	// Init (re)initialises the layer's weights from rng.
	Init(rng *rand.Rand)
}

// newTensor draws a zeroed tensor from p, or the heap when p is nil.
func newTensor(p *tensor.Pool, shape ...int) *tensor.Tensor {
	if p == nil {
		return tensor.New(shape...)
	}
	return p.NewTensor(shape...)
}

// newSlice draws a zeroed scratch slice from p, or the heap when p is nil.
func newSlice(p *tensor.Pool, n int) []float32 {
	if p == nil {
		return make([]float32, n)
	}
	return p.Get(n)
}

// viewTensor wraps data in a tensor header from p (or the heap when p is
// nil) without copying.
func viewTensor(p *tensor.Pool, data []float32, shape ...int) *tensor.Tensor {
	if p == nil {
		return tensor.FromSlice(data, shape...)
	}
	return p.ViewTensor(data, shape...)
}

// applyAct applies the activation to a whole slice with the kind switch
// hoisted out of the element loop.
func applyAct(a Activation, s []float32) {
	switch a {
	case ActNone:
	case ActReLU:
		for i, v := range s {
			if v < 0 {
				s[i] = 0
			}
		}
	case ActLeakyReLU:
		for i, v := range s {
			if v < 0 {
				s[i] = 0.01 * v
			}
		}
	case ActTanh:
		for i, v := range s {
			s[i] = tanh32(v)
		}
	case ActSigmoid:
		for i, v := range s {
			s[i] = sigmoid32(v)
		}
	}
}

// shapeEq reports whether two shapes match.
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

func prod(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Dense is a fully connected layer y = act(Wx + b) applied to a flat input.
type Dense struct {
	In, Out int
	Act     Activation

	w *tensor.Tensor // [Out, In]
	b []float32

	// wt holds rows [0, Out&^3) of w a second time, transposed into the
	// layout tensor.MulAddPanel reads: [In, Out&^3], the outputs of one input
	// side by side. It is packed where w is written — Init, Update, repack —
	// and only read by the forward pass, which therefore writes nothing the
	// goroutines sharing a model could race on.
	wt []float32
	// finite records that every value in wt is finite, which lets the
	// forward pass leave out the rows of wt that all-zero inputs reach
	// (mulAddNonzero). repack sets it.
	finite bool

	// Accumulated gradients (allocated lazily on first Backward).
	gw *tensor.Tensor
	gb []float32
}

// NewDense constructs a Dense layer.
func NewDense(in, out int, act Activation) *Dense {
	return &Dense{
		In: in, Out: out, Act: act,
		w: tensor.New(out, in), b: make([]float32, out),
		wt: make([]float32, in*(out&^3)),
	}
}

// packColumns writes the first n rows of the row-major [·,k] matrix w as
// columns of the panel dst, whose rows are ld apart, from panel row p0 on:
// dst[(p0+p)·ld+j] = w[j·k+p].
func packColumns(dst []float32, ld, p0 int, w []float32, n, k int) {
	for j := 0; j < n; j++ {
		for p, v := range w[j*k : (j+1)*k] {
			dst[(p0+p)*ld+j] = v
		}
	}
}

// repack rebuilds wt from w. Whatever writes w calls it before the next
// forward pass (`make one-impl-check` holds non-test code to that).
func (d *Dense) repack() {
	n := d.Out &^ 3
	packColumns(d.wt, n, 0, d.w.Data(), n, d.In)
	d.finite = true
	for _, v := range d.wt {
		if v-v != 0 { // ±Inf or NaN
			d.finite = false
			break
		}
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d→%d,%s)", d.In, d.Out, d.Act) }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) ([]int, error) {
	if prod(in) != d.In {
		return nil, fmt.Errorf("nn: dense expects %d inputs, got shape %v", d.In, in)
	}
	return []int{d.Out}, nil
}

// ForwardCtx implements Layer: zeroed output → x·Wᵀ → bias → activation.
func (d *Dense) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	if x.Size() != d.In {
		panic(fmt.Sprintf("nn: %s got input of size %d", d.Name(), x.Size()))
	}
	out := newTensor(p, d.Out)
	d.forward(x.Data(), out)
	return out
}

// forward applies the layer to each row of In values in x, filling the
// zeroed out, an [Out] vector or a [T,Out] matrix. Per row the first Out&^3
// outputs are one panel multiply, each a single chain in ascending input
// order; the last Out%4 are tensor.Dot over their own rows of w (four
// interleaved chains) — bit for bit what Gemm's transposed-b path gave every
// output when this was x·wᵀ through it. A lone row over finite weights
// leaves out its all-zero input groups, which add nothing to a chain
// (mulAddNonzero). The rows of a [T,In] input (the transformer's
// projections) are not checked: the check costs a row with no such group
// ≈ 6 %, and those short rows rarely hold one.
func (d *Dense) forward(x []float32, out *tensor.Tensor) {
	of, wf := out.Data(), d.w.Data()
	n := d.Out &^ 3
	skip := d.finite && len(of) == d.Out
	for t := 0; t*d.Out < len(of); t++ {
		xr, y := x[t*d.In:(t+1)*d.In], of[t*d.Out:(t+1)*d.Out]
		if skip {
			mulAddNonzero(xr, d.wt, n, y[:n])
		} else {
			tensor.MulAddPanel(xr, d.wt, n, y[:n])
		}
		for j := n; j < d.Out; j++ {
			y[j] += tensor.Dot(xr, wf[j*d.In:(j+1)*d.In])
		}
	}
	tensor.AddBias(out, d.b)
	applyAct(d.Act, of)
}

// mulAddNonzero is tensor.MulAddPanel(a, b, ldb, c) less the rows of b
// whose inputs lie in a group a[8g:8g+8] that is all ±0; the In%8 tail is
// always multiplied. The panel runs once per stretch between such groups, so
// a run of zeros costs a check per eight rows and none of the reads of b it
// would have cost. For a finite b and a c that holds no −0 the bits are
// MulAddPanel's: a left-out term ±0·b[p,j] is ±0, and x + ±0 == x for every
// x but −0, which a chain never holds — it starts at +0, and round-to-nearest
// addition gives −0 only from −0 + −0. An infinite or NaN b[p,j] would make
// 0·b[p,j] NaN, so Dense skips only over finite weights.
func mulAddNonzero(a, b []float32, ldb int, c []float32) {
	if len(c) == 0 {
		return
	}
	run := 0 // the first row not yet multiplied
	for g := 0; g+8 <= len(a); g += 8 {
		z := a[g : g+8 : g+8]
		// <<1 drops the sign bit. z[0] alone rules out most live groups with
		// one load; the rest are ORed, not branched on.
		if math.Float32bits(z[0])<<1 != 0 || (math.Float32bits(z[1])|math.Float32bits(z[2])|math.Float32bits(z[3])|
			math.Float32bits(z[4])|math.Float32bits(z[5])|math.Float32bits(z[6])|math.Float32bits(z[7]))<<1 != 0 {
			continue
		}
		if g > run {
			tensor.MulAddPanel(a[run:g], b[run*ldb:], ldb, c)
		}
		run = g + 8
	}
	tensor.MulAddPanel(a[run:], b[run*ldb:], ldb, c)
}

// FLOPs implements Layer.
func (d *Dense) FLOPs([]int) int64 {
	f := int64(d.Out) * int64(d.In) * 2
	if d.Act != ActNone {
		f += int64(d.Out) * actCost(d.Act)
	}
	return f
}

// Params implements Layer.
func (d *Dense) Params() int64 { return int64(d.Out)*int64(d.In) + int64(d.Out) }

// Init implements Layer.
func (d *Dense) Init(rng *rand.Rand) {
	std := 1.0 / float64(d.In)
	d.w.FillRandn(rng, sqrt64(std))
	for i := range d.b {
		d.b[i] = 0
	}
	d.repack()
}

// actCost is the per-element FLOP estimate for an activation.
func actCost(a Activation) int64 {
	switch a {
	case ActTanh, ActSigmoid:
		return 8 // exponential evaluation on the EPEs
	case ActNone:
		return 0
	default:
		return 1
	}
}

// Flatten reshapes any input to rank 1.
type Flatten struct{}

// Name implements Layer.
func (Flatten) Name() string { return "flatten" }

// OutShape implements Layer.
func (Flatten) OutShape(in []int) ([]int, error) { return []int{prod(in)}, nil }

// ForwardCtx implements Layer.
func (Flatten) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	return viewTensor(p, x.Data(), x.Size())
}

// FLOPs implements Layer.
func (Flatten) FLOPs([]int) int64 { return 0 }

// Params implements Layer.
func (Flatten) Params() int64 { return 0 }

// Init implements Layer.
func (Flatten) Init(*rand.Rand) {}

// SeqFromCHW converts a [C,H,W] activation into a [T,D] sequence with T=H
// and D=C·W, the layout handoff between DeepLOB's convolutional stack and
// its LSTM.
type SeqFromCHW struct{}

// Name implements Layer.
func (SeqFromCHW) Name() string { return "seq-from-chw" }

// OutShape implements Layer.
func (SeqFromCHW) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: seq-from-chw expects rank 3, got %v", in)
	}
	return []int{in[1], in[0] * in[2]}, nil
}

// ForwardCtx implements Layer: the [C,H,W]→[H,C·W] transpose as H·C
// contiguous row copies instead of element-wise stores.
func (SeqFromCHW) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	out := newTensor(p, h, c*w)
	xf, of := x.Data(), out.Data()
	for t := 0; t < h; t++ {
		orow := of[t*c*w : (t+1)*c*w]
		for ci := 0; ci < c; ci++ {
			copy(orow[ci*w:(ci+1)*w], xf[(ci*h+t)*w:(ci*h+t+1)*w])
		}
	}
	return out
}

// FLOPs implements Layer.
func (SeqFromCHW) FLOPs([]int) int64 { return 0 }

// Params implements Layer.
func (SeqFromCHW) Params() int64 { return 0 }

// Init implements Layer.
func (SeqFromCHW) Init(*rand.Rand) {}

// SoftmaxLayer applies a softmax over a rank-1 input, producing class
// probabilities.
type SoftmaxLayer struct{}

// Name implements Layer.
func (SoftmaxLayer) Name() string { return "softmax" }

// OutShape implements Layer.
func (SoftmaxLayer) OutShape(in []int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("nn: softmax expects rank 1, got %v", in)
	}
	return in, nil
}

// ForwardCtx implements Layer.
func (SoftmaxLayer) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	out := newTensor(p, x.Shape()...)
	tensor.SoftmaxInto(out, x)
	return out
}

// FLOPs implements Layer.
func (SoftmaxLayer) FLOPs(in []int) int64 { return int64(prod(in)) * 10 }

// Params implements Layer.
func (SoftmaxLayer) Params() int64 { return 0 }

// Init implements Layer.
func (SoftmaxLayer) Init(*rand.Rand) {}
