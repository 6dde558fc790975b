package nn

import (
	"fmt"
	"math"
	"math/rand"

	"lighttrader/internal/tensor"
)

// LayerNorm normalises each row of a [T,D] sequence to zero mean and unit
// variance, then applies a learned affine transform.
type LayerNorm struct {
	Dim   int
	gamma []float32
	beta  []float32
}

// NewLayerNorm constructs a layer norm over feature dimension dim.
func NewLayerNorm(dim int) *LayerNorm {
	g := make([]float32, dim)
	for i := range g {
		g[i] = 1
	}
	return &LayerNorm{Dim: dim, gamma: g, beta: make([]float32, dim)}
}

// Name implements Layer.
func (l *LayerNorm) Name() string { return fmt.Sprintf("layernorm(%d)", l.Dim) }

// OutShape implements Layer.
func (l *LayerNorm) OutShape(in []int) ([]int, error) {
	if len(in) != 2 || in[1] != l.Dim {
		return nil, fmt.Errorf("nn: %s expects [T,%d], got %v", l.Name(), l.Dim, in)
	}
	return in, nil
}

// ForwardCtx implements Layer.
func (l *LayerNorm) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.Dim {
		panic(fmt.Sprintf("nn: %s expects [T,%d], got %v", l.Name(), l.Dim, x.Shape()))
	}
	T := x.Dim(0)
	out := newTensor(p, T, l.Dim)
	const eps = 1e-5
	for t := 0; t < T; t++ {
		row := x.Data()[t*l.Dim : (t+1)*l.Dim]
		orow := out.Data()[t*l.Dim : (t+1)*l.Dim]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(l.Dim)
		var variance float64
		for _, v := range row {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(l.Dim)
		inv := 1 / math.Sqrt(variance+eps)
		for i, v := range row {
			orow[i] = l.gamma[i]*float32((float64(v)-mean)*inv) + l.beta[i]
		}
	}
	return out
}

// FLOPs implements Layer.
func (l *LayerNorm) FLOPs(in []int) int64 {
	if len(in) != 2 {
		return 0
	}
	return int64(in[0]) * int64(l.Dim) * 8
}

// Params implements Layer.
func (l *LayerNorm) Params() int64 { return 2 * int64(l.Dim) }

// Init implements Layer.
func (l *LayerNorm) Init(*rand.Rand) {
	for i := range l.gamma {
		l.gamma[i] = 1
		l.beta[i] = 0
	}
}

// PositionalEncoding adds fixed sinusoidal position information to a [T,D]
// sequence (Vaswani et al.), as TransLOB does before its transformer stack.
type PositionalEncoding struct{}

// Name implements Layer.
func (PositionalEncoding) Name() string { return "posenc" }

// OutShape implements Layer.
func (PositionalEncoding) OutShape(in []int) ([]int, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("nn: posenc expects rank 2, got %v", in)
	}
	return in, nil
}

// ForwardCtx implements Layer, hoisting the per-column frequency (the
// math.Pow) out of the time loop; the per-element arithmetic is unchanged,
// so outputs are bit-identical to the naive column-inner loop.
func (PositionalEncoding) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	T, D := x.Dim(0), x.Dim(1)
	out := newTensor(p, T, D)
	of := out.Data()
	copy(of, x.Data())
	for i := 0; i < D; i++ {
		freq := math.Pow(10000, float64(2*(i/2))/float64(D))
		if i%2 == 0 {
			for t := 0; t < T; t++ {
				of[t*D+i] += float32(math.Sin(float64(t) / freq))
			}
		} else {
			for t := 0; t < T; t++ {
				of[t*D+i] += float32(math.Cos(float64(t) / freq))
			}
		}
	}
	return out
}

// FLOPs implements Layer.
func (PositionalEncoding) FLOPs(in []int) int64 { return int64(prod(in)) }

// Params implements Layer.
func (PositionalEncoding) Params() int64 { return 0 }

// Init implements Layer.
func (PositionalEncoding) Init(*rand.Rand) {}

// TransformerBlock is a pre-norm transformer encoder block: LN → multi-head
// self-attention → residual, then LN → 2-layer feed-forward → residual.
type TransformerBlock struct {
	Dim, Heads, FF int

	ln1, ln2   *LayerNorm
	q, k, v, o *Dense // the Dim→Dim projections, applied row by row
	ff1        *Dense
	ff2        *Dense
	attnScale  float32
	headDim    int
}

// NewTransformerBlock constructs a block; dim must be divisible by heads.
func NewTransformerBlock(dim, heads, ff int) *TransformerBlock {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: dim %d not divisible by heads %d", dim, heads))
	}
	return &TransformerBlock{
		Dim: dim, Heads: heads, FF: ff,
		ln1: NewLayerNorm(dim), ln2: NewLayerNorm(dim),
		q: NewDense(dim, dim, ActNone), k: NewDense(dim, dim, ActNone),
		v: NewDense(dim, dim, ActNone), o: NewDense(dim, dim, ActNone),
		ff1:       NewDense(dim, ff, ActReLU),
		ff2:       NewDense(ff, dim, ActNone),
		attnScale: float32(1 / math.Sqrt(float64(dim/heads))),
		headDim:   dim / heads,
	}
}

// Name implements Layer.
func (b *TransformerBlock) Name() string {
	return fmt.Sprintf("transformer(d%d,h%d,ff%d)", b.Dim, b.Heads, b.FF)
}

// OutShape implements Layer.
func (b *TransformerBlock) OutShape(in []int) ([]int, error) {
	if len(in) != 2 || in[1] != b.Dim {
		return nil, fmt.Errorf("nn: %s expects [T,%d], got %v", b.Name(), b.Dim, in)
	}
	return in, nil
}

// rows applies d to every row of the [T,d.In] input x.
func rows(p *tensor.Pool, d *Dense, x *tensor.Tensor) *tensor.Tensor {
	out := newTensor(p, x.Dim(0), d.Out)
	d.forward(x.Data(), out)
	return out
}

// ForwardCtx implements Layer. The Q/K/V/O projections and the two
// feed-forward layers are Dense layers applied to each of the T rows.
func (b *TransformerBlock) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != b.Dim {
		panic(fmt.Sprintf("nn: %s expects [T,%d], got %v", b.Name(), b.Dim, x.Shape()))
	}
	T := x.Dim(0)
	// Self-attention sublayer.
	n := b.ln1.ForwardCtx(p, x)
	q := rows(p, b.q, n)
	k := rows(p, b.k, n)
	v := rows(p, b.v, n)
	attnOut := newTensor(p, T, b.Dim)
	scores := newSlice(p, T)
	for h := 0; h < b.Heads; h++ {
		off := h * b.headDim
		for ti := 0; ti < T; ti++ {
			qrow := q.Data()[ti*b.Dim+off : ti*b.Dim+off+b.headDim]
			var maxv float32 = -math.MaxFloat32
			for tj := 0; tj < T; tj++ {
				krow := k.Data()[tj*b.Dim+off : tj*b.Dim+off+b.headDim]
				var dot float32
				for i := range qrow {
					dot += qrow[i] * krow[i]
				}
				dot *= b.attnScale
				scores[tj] = dot
				if dot > maxv {
					maxv = dot
				}
			}
			var sum float64
			for tj := 0; tj < T; tj++ {
				e := math.Exp(float64(scores[tj] - maxv))
				scores[tj] = float32(e)
				sum += e
			}
			inv := float32(1 / sum)
			orow := attnOut.Data()[ti*b.Dim+off : ti*b.Dim+off+b.headDim]
			for tj := 0; tj < T; tj++ {
				wgt := scores[tj] * inv
				if wgt == 0 {
					continue
				}
				vrow := v.Data()[tj*b.Dim+off : tj*b.Dim+off+b.headDim]
				for i := range orow {
					orow[i] += wgt * vrow[i]
				}
			}
		}
	}
	proj := rows(p, b.o, attnOut)
	tensor.AddInPlace(proj, x) // residual
	// Feed-forward sublayer.
	ffOut := rows(p, b.ff2, rows(p, b.ff1, b.ln2.ForwardCtx(p, proj)))
	tensor.AddInPlace(ffOut, proj)
	return ffOut
}

// FLOPs implements Layer.
func (b *TransformerBlock) FLOPs(in []int) int64 {
	if len(in) != 2 {
		return 0
	}
	T := int64(in[0])
	D := int64(b.Dim)
	proj := 4 * T * D * D * 2         // Q,K,V,O projections
	attn := 2*T*T*D*2 + T*T*int64(10) // scores + weighted sum + softmax
	ff := T * (D*int64(b.FF)*2*2 + int64(b.FF))
	ln := 2 * T * D * 8
	return proj + attn + ff + ln
}

// Params implements Layer.
func (b *TransformerBlock) Params() int64 {
	D := int64(b.Dim)
	return 4*D*D + 4*D + b.ff1.Params() + b.ff2.Params() + b.ln1.Params() + b.ln2.Params()
}

// Init implements Layer.
func (b *TransformerBlock) Init(rng *rand.Rand) {
	for _, d := range []*Dense{b.q, b.k, b.v, b.o} {
		d.Init(rng)
	}
	b.ff1.Init(rng)
	b.ff2.Init(rng)
	b.ln1.Init(rng)
	b.ln2.Init(rng)
}
