package nn

// This file preserves the pre-optimization naive layer forwards verbatim.
// They are the golden references for the im2col/GEMM rewrites: property
// tests cross-check the optimized paths against them over randomized
// shapes, strides and padding (see forward_test.go).

import (
	"math"

	"lighttrader/internal/tensor"
)

// referenceConv is the original Conv2D.Forward: direct 6-nested loop with
// bounds checks, bias seeding the accumulator and a fused activation.
func referenceConv(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	outShape, err := c.OutShape(x.Shape())
	if err != nil {
		panic(err)
	}
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := outShape[1], outShape[2]
	out := tensor.New(c.OutC, oh, ow)
	wf := c.w.Data()
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*c.SH - c.PadH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*c.SW - c.PadW
				sum := c.b[oc]
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.KH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						wrow := wf[((oc*c.InC+ic)*c.KH+ky)*c.KW:]
						for kx := 0; kx < c.KW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							sum += wrow[kx] * x.At3(ic, iy, ix)
						}
					}
				}
				out.Set3(oc, oy, ox, c.Act.apply(sum))
			}
		}
	}
	return out
}

// referenceMaxPool is the original MaxPool2D.Forward.
func referenceMaxPool(p *MaxPool2D, x *tensor.Tensor) *tensor.Tensor {
	outShape, err := p.OutShape(x.Shape())
	if err != nil {
		panic(err)
	}
	out := tensor.New(outShape...)
	for c := 0; c < outShape[0]; c++ {
		for oy := 0; oy < outShape[1]; oy++ {
			for ox := 0; ox < outShape[2]; ox++ {
				best := x.At3(c, oy*p.SH, ox*p.SW)
				for ky := 0; ky < p.KH; ky++ {
					for kx := 0; kx < p.KW; kx++ {
						if v := x.At3(c, oy*p.SH+ky, ox*p.SW+kx); v > best {
							best = v
						}
					}
				}
				out.Set3(c, oy, ox, best)
			}
		}
	}
	return out
}

// referenceDense is the original Dense.Forward: per-output sequential dot
// with the bias seeding the accumulator.
func referenceDense(d *Dense, x *tensor.Tensor) *tensor.Tensor {
	xf := x.Data()
	out := tensor.New(d.Out)
	of := out.Data()
	wf := d.w.Data()
	for o := 0; o < d.Out; o++ {
		sum := d.b[o]
		row := wf[o*d.In : (o+1)*d.In]
		for i, v := range xf {
			sum += row[i] * v
		}
		of[o] = d.Act.apply(sum)
	}
	return out
}

// referenceLSTM is the original LSTM.Forward: per-gate sequential dots
// against x_t and h separately.
func referenceLSTM(l *LSTM, x *tensor.Tensor) *tensor.Tensor {
	if _, err := l.OutShape(x.Shape()); err != nil {
		panic(err)
	}
	T := x.Dim(0)
	H := l.Hidden
	h := make([]float32, H)
	c := make([]float32, H)
	gates := make([]float32, 4*H)
	var seq *tensor.Tensor
	if !l.ReturnLast {
		seq = tensor.New(T, H)
	}
	wxf, whf := l.wx.Data(), l.wh.Data()
	for t := 0; t < T; t++ {
		xt := x.Data()[t*l.In : (t+1)*l.In]
		copy(gates, l.b)
		for g := 0; g < 4*H; g++ {
			row := wxf[g*l.In : (g+1)*l.In]
			sum := gates[g]
			for i, v := range xt {
				sum += row[i] * v
			}
			hrow := whf[g*H : (g+1)*H]
			for i, v := range h {
				sum += hrow[i] * v
			}
			gates[g] = sum
		}
		for j := 0; j < H; j++ {
			i := sigmoid32(gates[j])
			f := sigmoid32(gates[H+j])
			g := tanh32(gates[2*H+j])
			o := sigmoid32(gates[3*H+j])
			c[j] = f*c[j] + i*g
			h[j] = o * tanh32(c[j])
		}
		if seq != nil {
			copy(seq.Data()[t*H:(t+1)*H], h)
		}
	}
	if l.ReturnLast {
		out := tensor.New(H)
		copy(out.Data(), h)
		return out
	}
	return seq
}

// referenceProject is the original TransformerBlock.project.
func referenceProject(b *TransformerBlock, x, w *tensor.Tensor, bias []float32) *tensor.Tensor {
	T := x.Dim(0)
	out := tensor.New(T, b.Dim)
	wf := w.Data()
	for t := 0; t < T; t++ {
		row := x.Data()[t*b.Dim : (t+1)*b.Dim]
		orow := out.Data()[t*b.Dim : (t+1)*b.Dim]
		for o := 0; o < b.Dim; o++ {
			sum := bias[o]
			wrow := wf[o*b.Dim : (o+1)*b.Dim]
			for i, v := range row {
				sum += wrow[i] * v
			}
			orow[o] = sum
		}
	}
	return out
}

// referenceTransformer is the original TransformerBlock.Forward with
// per-row projections and per-row feed-forward Dense calls.
func referenceTransformer(b *TransformerBlock, x *tensor.Tensor) *tensor.Tensor {
	if _, err := b.OutShape(x.Shape()); err != nil {
		panic(err)
	}
	T := x.Dim(0)
	n := b.ln1.Forward(x)
	q := referenceProject(b, n, b.q.w, b.q.b)
	k := referenceProject(b, n, b.k.w, b.k.b)
	v := referenceProject(b, n, b.v.w, b.v.b)
	attnOut := tensor.New(T, b.Dim)
	scores := make([]float32, T)
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
	proj := referenceProject(b, attnOut, b.o.w, b.o.b)
	tensor.AddInPlace(proj, x)
	n2 := b.ln2.Forward(proj)
	ffOut := tensor.New(T, b.Dim)
	for t := 0; t < T; t++ {
		row := tensor.FromSlice(n2.Data()[t*b.Dim:(t+1)*b.Dim], b.Dim)
		h := referenceDense(b.ff1, row)
		o := referenceDense(b.ff2, h)
		copy(ffOut.Data()[t*b.Dim:(t+1)*b.Dim], o.Data())
	}
	tensor.AddInPlace(ffOut, proj)
	return ffOut
}

// referenceSeqFromCHW is the original element-wise SeqFromCHW.Forward.
func referenceSeqFromCHW(x *tensor.Tensor) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	out := tensor.New(h, c*w)
	for t := 0; t < h; t++ {
		for ci := 0; ci < c; ci++ {
			for wi := 0; wi < w; wi++ {
				out.Data()[t*c*w+ci*w+wi] = x.At3(ci, t, wi)
			}
		}
	}
	return out
}

// referencePosEnc is the original PositionalEncoding.Forward with the
// per-element math.Pow.
func referencePosEnc(x *tensor.Tensor) *tensor.Tensor {
	T, D := x.Dim(0), x.Dim(1)
	out := x.Clone()
	for t := 0; t < T; t++ {
		for i := 0; i < D; i++ {
			angle := float64(t) / math.Pow(10000, float64(2*(i/2))/float64(D))
			var pe float64
			if i%2 == 0 {
				pe = math.Sin(angle)
			} else {
				pe = math.Cos(angle)
			}
			out.Data()[t*D+i] += float32(pe)
		}
	}
	return out
}

// apply computes the activation for one value.
func (a Activation) apply(x float32) float32 {
	switch a {
	case ActReLU:
		if x < 0 {
			return 0
		}
		return x
	case ActLeakyReLU:
		if x < 0 {
			return 0.01 * x
		}
		return x
	case ActTanh:
		return tanh32(x)
	case ActSigmoid:
		return sigmoid32(x)
	default:
		return x
	}
}
