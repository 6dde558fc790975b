package nn

import (
	"fmt"
	"math/rand"

	"lighttrader/internal/tensor"
)

// Conv2D is a 2-D convolution over [C,H,W] activations with optional zero
// padding and stride, followed by an activation.
type Conv2D struct {
	InC, OutC  int
	KH, KW     int
	SH, SW     int
	PadH, PadW int
	Act        Activation

	w *tensor.Tensor // [OutC, InC, KH, KW]
	b []float32

	// wt holds w a second time, transposed into the panel the in-place
	// lowering multiplies against: [InC·KH·KW, OutC], the outputs of one tap
	// side by side; nil on a layer whose geometry never takes that lowering.
	// Like Dense's it is packed where w is written (repack) and only read by
	// the forward pass.
	wt []float32

	// Accumulated gradients (allocated lazily on first Backward).
	gw *tensor.Tensor
	gb []float32

	// memo is the sliding-window memo (see ForwardCtx); nil on a layer that
	// strides or pads in H, whose output rows are not a shift of last call's.
	memo *slideMemo
}

// NewConv2D constructs a convolution; stride values of 0 default to 1.
func NewConv2D(inC, outC, kh, kw, sh, sw, padH, padW int, act Activation) *Conv2D {
	if sh == 0 {
		sh = 1
	}
	if sw == 0 {
		sw = 1
	}
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, SH: sh, SW: sw, PadH: padH, PadW: padW, Act: act,
		w: tensor.New(outC, inC, kh, kw), b: make([]float32, outC),
	}
	if c.inPlace(kw) {
		c.wt = make([]float32, inC*kh*kw*outC)
	}
	if sh == 1 && padH == 0 {
		c.memo = newSlideMemo()
	}
	c.repack()
	return c
}

// repack rebuilds wt from w and drops the memo's kept output, the two things
// derived from the weights. Whatever writes c.w or c.b calls it before the
// next forward pass (`make one-impl-check` holds non-test code to that).
func (c *Conv2D) repack() {
	if c.wt != nil {
		packColumns(c.wt, c.OutC, 0, c.w.Data(), c.OutC, c.InC*c.KH*c.KW)
	}
	if c.memo != nil {
		c.memo.drop()
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv(%d→%d,%dx%d,s%dx%d,%s)", c.InC, c.OutC, c.KH, c.KW, c.SH, c.SW, c.Act)
}

// outDim is the number of positions a k-long window takes at stride s over
// n inputs zero-padded by pad on both sides, 0 when the window does not fit.
// The fit is its own test: Go's / truncates toward zero, so for a window up
// to s−1 longer than the padded input (n+2·pad−k)/s + 1 reads 1, not ≤ 0.
func outDim(n, k, s, pad int) int {
	if n+2*pad < k {
		return 0
	}
	return (n+2*pad-k)/s + 1
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.InC {
		return nil, fmt.Errorf("nn: %s expects [%d,H,W], got %v", c.Name(), c.InC, in)
	}
	oh := outDim(in[1], c.KH, c.SH, c.PadH)
	ow := outDim(in[2], c.KW, c.SW, c.PadW)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: %s output collapses for input %v", c.Name(), in)
	}
	return []int{c.OutC, oh, ow}, nil
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor { return c.ForwardCtx(nil, x) }

// ForwardCtx implements Layer. The multiply has three lowerings, chosen
// from the layer's geometry alone; all three accumulate each output as one
// float32 chain from +0 over (ic,ky,kx) ascending, so they agree bit for
// bit. The bias add and activation are a separate pass over each output
// row.
//   - 1×1/stride-1/unpadded: the input already is the [InC, H·W] patch
//     matrix; one MatMulInto against it.
//   - full input width (KW == W, no width padding, so ow == 1) with a
//     patch of at least minInPlaceRun floats per channel: every patch is a
//     contiguous run of the input; multiplied in place against wt.
//   - otherwise im2col: unfold into a [InC·KH·KW, oh·ow] patch matrix,
//     then one [OutC,K]×[K,N] MatMulInto.
//
// Geometry also decides whether the layer keeps a sliding-window memo: at
// stride 1 and no padding in H (and H > KH, so there is a row to reuse) an
// input that is the last one moved up by one row — what a tick does to the
// offload engine's feature map, and what the input's stream stamp says it is
// (tensor.SetStamp) — has last call's output moved up by one row as all but
// its last output row, so only that row is computed: by forward — the same
// lowering the full pass would take, the same biasAct — over the last KH
// input rows, each of its elements the very chain the full pass would have
// run. Any other stamped input (a first call, another shape, a skipped tick,
// another stream) runs the full pass and is kept; an unstamped one runs it
// beside the memo. Under the memo the output carries the layer's own stamp,
// so a memo layer behind it hits when this one does.
func (c *Conv2D) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(0) != c.InC {
		panic(fmt.Sprintf("nn: %s expects [%d,H,W], got %v", c.Name(), c.InC, x.Shape()))
	}
	h, w := x.Dim(1), x.Dim(2)
	oh := outDim(h, c.KH, c.SH, c.PadH)
	ow := outDim(w, c.KW, c.SW, c.PadW)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s output collapses for input %v", c.Name(), x.Shape()))
	}
	inPlace := c.inPlace(w)
	m := c.memo
	// A second goroutine inside the layer (a model shared by two lanes) runs
	// the full pass beside the memo rather than waiting for it.
	if c.SH != 1 || c.PadH != 0 || h <= c.KH || !m.enter(x) {
		return c.forward(p, x, oh, ow, inPlace)
	}
	defer m.mu.Unlock()
	if !m.next(x) {
		out := c.forward(p, x, oh, ow, inPlace)
		m.keep(x, 1).set(out.Data(), c.OutC, oh, ow)
		m.stamp(out)
		return out
	}
	xf := x.Data()
	var tail *tensor.Tensor
	if c.InC == 1 {
		tail = viewTensor(p, xf[(h-c.KH)*w:], 1, c.KH, w)
	} else {
		tail = newTensor(p, c.InC, c.KH, w)
		for ic := 0; ic < c.InC; ic++ {
			copy(tail.Data()[ic*c.KH*w:(ic+1)*c.KH*w], xf[((ic+1)*h-c.KH)*w:(ic+1)*h*w])
		}
	}
	r := m.slide(x, c.forward(p, tail, 1, ow, inPlace).Data())
	out := newTensor(p, c.OutC, oh, ow)
	for oc := 0; oc < c.OutC; oc++ {
		copy(out.Data()[oc*oh*ow:], r.channel(oc))
	}
	m.stamp(out)
	return out
}

// forward is the whole convolution of x: the multiply on the given lowering,
// then bias and activation.
func (c *Conv2D) forward(p *tensor.Pool, x *tensor.Tensor, oh, ow int, inPlace bool) *tensor.Tensor {
	var out *tensor.Tensor
	if inPlace {
		out = newTensor(p, c.OutC, oh, ow)
		c.mulInPlace(p, x, out)
	} else {
		out = c.mulGEMM(p, x, oh, ow)
	}
	c.biasAct(out)
	return out
}

// minInPlaceRun is the shortest per-channel patch (KH·W floats) the
// in-place lowering takes. It enters the panel kernel once per output row
// and input channel with that as its k, so a k×1 kernel over a
// single-column activation (3–5 floats) would pay a kernel entry per 3–5
// rows of wt — InC·oh entries where im2col + MatMulInto makes OutC, each
// over all InC·KH taps (EXPERIMENTS "Inference lowering"): those layers stay
// on im2col.
const minInPlaceRun = 8

// inPlace reports whether the in-place lowering applies: the kernel spans
// the whole input width and each channel's patch is a run worth a kernel
// call.
func (c *Conv2D) inPlace(w int) bool {
	return c.KW == w && c.PadW == 0 && c.KH*w >= minInPlaceRun
}

// mulGEMM returns the convolution before bias and activation as one
// W[OutC,K]×cols[K,N] MatMulInto, cols being the input itself for a 1×1
// kernel and the im2col unfold otherwise.
func (c *Conv2D) mulGEMM(p *tensor.Pool, x *tensor.Tensor, oh, ow int) *tensor.Tensor {
	k := c.InC * c.KH * c.KW
	n := oh * ow
	var cols *tensor.Tensor
	if c.KH == 1 && c.KW == 1 && c.SH == 1 && c.SW == 1 && c.PadH == 0 && c.PadW == 0 {
		cols = viewTensor(p, x.Data(), k, n)
	} else {
		cols = viewTensor(p, c.im2col(p, x, oh, ow), k, n)
	}
	out := newTensor(p, c.OutC, oh, ow)
	wv := viewTensor(p, c.w.Data(), c.OutC, k)
	ov := viewTensor(p, out.Data(), c.OutC, n)
	tensor.MatMulInto(ov, wv, cols)
	return out
}

// mulInPlace writes a full-width convolution (see inPlace) into the zeroed
// out without unfolding: with KW == W the patch of output row oy in channel
// ic is the KH·W contiguous floats from input row oy·SH−PadH, and rows
// [ic·KH·W, (ic+1)·KH·W) of wt are that channel's taps, so each output row is
// one MulAddPanel per input channel, in order, each continuing the OutC
// chains the last left — the single (ic,ky,kx)-ascending sum im2col +
// MatMulInto runs per output. A row whose patch hangs over the top or bottom
// edge multiplies only the taps inside the plane (the rest would add w·0,
// which never changes a chain that starts at +0). The panel leaves a row's
// OutC outputs side by side; they are scattered into column oy of the
// [OutC, oh] out, which for a single row is the same layout.
func (c *Conv2D) mulInPlace(p *tensor.Pool, x, out *tensor.Tensor) {
	h, w, oh := x.Dim(1), x.Dim(2), out.Dim(1)
	xf, of := x.Data(), out.Data()
	row := of
	if oh > 1 {
		row = newSlice(p, c.OutC)
	}
	for oy := 0; oy < oh; oy++ {
		iy := oy*c.SH - c.PadH
		ky0, ky1 := max(0, -iy), min(c.KH, h-iy)
		clear(row)
		for ic := 0; ic < c.InC && ky0 < ky1; ic++ {
			plane := xf[ic*h*w : (ic+1)*h*w]
			tensor.MulAddPanel(plane[(iy+ky0)*w:(iy+ky1)*w], c.wt[(ic*c.KH+ky0)*w*c.OutC:], c.OutC, row)
		}
		if oh > 1 {
			for oc, v := range row {
				of[oc*oh+oy] = v
			}
		}
	}
}

// biasAct adds the per-channel bias and applies the activation over each
// output row.
func (c *Conv2D) biasAct(out *tensor.Tensor) {
	n := out.Dim(1) * out.Dim(2)
	of := out.Data()
	for oc := 0; oc < c.OutC; oc++ {
		row := of[oc*n : (oc+1)*n]
		if bv := c.b[oc]; bv != 0 {
			for i := range row {
				row[i] += bv
			}
		}
		applyAct(c.Act, row)
	}
}

// im2col unfolds x into the [InC·KH·KW, oh·ow] patch matrix. Row
// (ic·KH+ky)·KW+kx holds, for every output position, the input value the
// kernel tap (ic,ky,kx) reads; out-of-image taps stay zero. For unit
// horizontal stride each row segment is a contiguous copy of the input row
// clamped at the image edges.
func (c *Conv2D) im2col(p *tensor.Pool, x *tensor.Tensor, oh, ow int) []float32 {
	h, w := x.Dim(1), x.Dim(2)
	n := oh * ow
	cols := newSlice(p, c.InC*c.KH*c.KW*n)
	xf := x.Data()
	for ic := 0; ic < c.InC; ic++ {
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				dst := cols[((ic*c.KH+ky)*c.KW+kx)*n:]
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.SH - c.PadH + ky
					if iy < 0 || iy >= h {
						continue // padding row: stays zero
					}
					drow := dst[oy*ow : (oy+1)*ow]
					srow := xf[(ic*h+iy)*w : (ic*h+iy+1)*w]
					if c.SW == 1 {
						// Clamp the contiguous copy at the image edges.
						o0, ix := 0, kx-c.PadW
						if ix < 0 {
							o0, ix = -ix, 0
						}
						if end := ix + (ow - o0); end <= w {
							copy(drow[o0:], srow[ix:end])
						} else {
							copy(drow[o0:], srow[ix:])
						}
					} else {
						for ox := 0; ox < ow; ox++ {
							ix := ox*c.SW - c.PadW + kx
							if ix >= 0 && ix < w {
								drow[ox] = srow[ix]
							}
						}
					}
				}
			}
		}
	}
	return cols
}

// FLOPs implements Layer.
func (c *Conv2D) FLOPs(in []int) int64 {
	out, err := c.OutShape(in)
	if err != nil {
		return 0
	}
	macs := int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(c.InC) * int64(c.KH) * int64(c.KW)
	f := macs * 2
	if c.Act != ActNone {
		f += int64(prod(out)) * actCost(c.Act)
	}
	return f
}

// Params implements Layer.
func (c *Conv2D) Params() int64 {
	return int64(c.OutC)*int64(c.InC)*int64(c.KH)*int64(c.KW) + int64(c.OutC)
}

// Init implements Layer.
func (c *Conv2D) Init(rng *rand.Rand) {
	fanIn := float64(c.InC * c.KH * c.KW)
	c.w.FillRandn(rng, sqrt64(2/fanIn))
	for i := range c.b {
		c.b[i] = 0
	}
	c.repack()
}

// MaxPool2D is a max pooling layer over [C,H,W].
type MaxPool2D struct {
	KH, KW int
	SH, SW int

	// memo is the sliding-window memo of a pool over a single column (see
	// ForwardCtx); nil unless KW == 1.
	memo *slideMemo
}

// NewMaxPool2D constructs a pooling layer; stride 0 defaults to the kernel.
func NewMaxPool2D(kh, kw, sh, sw int) *MaxPool2D {
	if sh == 0 {
		sh = kh
	}
	if sw == 0 {
		sw = kw
	}
	p := &MaxPool2D{KH: kh, KW: kw, SH: sh, SW: sw}
	if kw == 1 {
		p.memo = newSlideMemo()
	}
	return p
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("maxpool(%dx%d)", p.KH, p.KW) }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: maxpool expects rank 3, got %v", in)
	}
	oh := outDim(in[1], p.KH, p.SH, 0)
	ow := outDim(in[2], p.KW, p.SW, 0)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: maxpool output collapses for input %v", in)
	}
	return []int{in[0], oh, ow}, nil
}

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor { return p.ForwardCtx(nil, x) }

// ForwardCtx implements Layer, scanning each window by direct row slices, or
// straight down the column when the activation is one wide (what a full-width
// convolution leaves): the same comparisons in the same order either way.
//
// A single-column pool also keeps a sliding-window memo when H > KH. Its
// output moves up one row for every SH rows the input does, so it keeps SH
// answers, one per phase of the input's stream position (slideMemo.out): an
// input stamped as the last one moved up a row is answered by the answer SH
// positions back moved up a row, plus one new last window per channel,
// scanned with the comparisons a full pass would make. Any other stamped
// input is a miss: its windows are scanned, and so are those the next SH−1
// phases will build on. An unstamped input is pooled beside the memo. At
// stride 1 the output carries the layer's own stamp.
func (p *MaxPool2D) ForwardCtx(pool *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: maxpool expects rank 3, got %v", x.Shape()))
	}
	ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh := outDim(h, p.KH, p.SH, 0)
	ow := outDim(w, p.KW, p.SW, 0)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: maxpool output collapses for input %v", x.Shape()))
	}
	out := newTensor(pool, ch, oh, ow)
	xf, of := x.Data(), out.Data()
	if w == 1 && p.KW == 1 {
		m := p.memo
		if h <= p.KH || !m.enter(x) {
			for c := 0; c < ch; c++ {
				col, ocol := xf[c*h:(c+1)*h], of[c*oh:(c+1)*oh]
				for oy := range ocol {
					ocol[oy] = colMax(col[oy*p.SH : oy*p.SH+p.KH])
				}
			}
			return out
		}
		defer m.mu.Unlock()
		_, n := x.Stamp()
		if m.next(x) {
			last, at := newSlice(pool, ch), (oh-1)*p.SH
			for c := range last {
				last[c] = colMax(xf[c*h+at : c*h+at+p.KH])
			}
			m.slide(x, last)
		} else {
			// Ring n holds this answer; ring n+j, 0 < j < SH, the answer at
			// n+j−SH but for its first row, which the hit at n+j pushes out:
			// rows 1… are this input's windows from SH·oy + j − SH.
			m.keep(x, p.SH)
			rows := newSlice(pool, ch*oh)
			for j := 0; j < p.SH; j++ {
				d := j
				if d > 0 {
					d -= p.SH
				}
				for c := 0; c < ch; c++ {
					col, rcol := xf[c*h:(c+1)*h], rows[c*oh:(c+1)*oh]
					for oy := range rcol {
						if at := oy*p.SH + d; at >= 0 {
							rcol[oy] = colMax(col[at : at+p.KH])
						}
					}
				}
				m.ring(n+uint64(j)).set(rows, ch, oh, 1)
			}
		}
		r := m.ring(n)
		for c := 0; c < ch; c++ {
			copy(of[c*oh:(c+1)*oh], r.channel(c))
		}
		if p.SH == 1 { // the output moves up a row with the input
			m.stamp(out)
		}
		return out
	}
	for c := 0; c < ch; c++ {
		plane := xf[c*h*w : (c+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			orow := of[(c*oh+oy)*ow : (c*oh+oy+1)*ow]
			for ox := 0; ox < ow; ox++ {
				best := plane[oy*p.SH*w+ox*p.SW]
				for ky := 0; ky < p.KH; ky++ {
					win := plane[(oy*p.SH+ky)*w+ox*p.SW : (oy*p.SH+ky)*w+ox*p.SW+p.KW]
					for _, v := range win {
						if v > best {
							best = v
						}
					}
				}
				orow[ox] = best
			}
		}
	}
	return out
}

// colMax is the max of one window down a column: its first element, then
// every later one that compares greater.
func colMax(win []float32) float32 {
	best := win[0]
	for _, v := range win[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// FLOPs implements Layer.
func (p *MaxPool2D) FLOPs(in []int) int64 {
	out, err := p.OutShape(in)
	if err != nil {
		return 0
	}
	return int64(prod(out)) * int64(p.KH*p.KW) // comparisons
}

// Params implements Layer.
func (p *MaxPool2D) Params() int64 { return 0 }

// Init implements Layer.
func (p *MaxPool2D) Init(*rand.Rand) {}

// Inception is DeepLOB's inception module: parallel branches whose outputs
// are concatenated along the channel dimension. Branch spatial dimensions
// must match; use same-padding convolutions inside branches.
type Inception struct {
	Branches [][]Layer
}

// Name implements Layer.
func (in *Inception) Name() string { return fmt.Sprintf("inception(%d branches)", len(in.Branches)) }

// OutShape implements Layer.
func (in *Inception) OutShape(shape []int) ([]int, error) {
	totalC := 0
	var hw []int
	for bi, branch := range in.Branches {
		cur := shape
		for _, l := range branch {
			next, err := l.OutShape(cur)
			if err != nil {
				return nil, fmt.Errorf("nn: inception branch %d: %w", bi, err)
			}
			cur = next
		}
		if len(cur) != 3 {
			return nil, fmt.Errorf("nn: inception branch %d ends with rank %d", bi, len(cur))
		}
		if hw == nil {
			hw = cur[1:]
		} else if !shapeEq(hw, cur[1:]) {
			return nil, fmt.Errorf("nn: inception branch %d spatial %v != %v", bi, cur[1:], hw)
		}
		totalC += cur[0]
	}
	return []int{totalC, hw[0], hw[1]}, nil
}

// Forward implements Layer.
func (in *Inception) Forward(x *tensor.Tensor) *tensor.Tensor { return in.ForwardCtx(nil, x) }

// maxInceptionBranches bounds the on-stack branch-output scratch in
// ForwardCtx; DeepLOB uses 3.
const maxInceptionBranches = 8

// ForwardCtx implements Layer: branch outputs are [bc,H,W] blocks, so the
// channel concatenation is one contiguous copy per branch.
func (in *Inception) ForwardCtx(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	if len(in.Branches) > maxInceptionBranches {
		panic(fmt.Sprintf("nn: inception supports at most %d branches, got %d", maxInceptionBranches, len(in.Branches)))
	}
	var outs [maxInceptionBranches]*tensor.Tensor
	totalC := 0
	for bi, branch := range in.Branches {
		cur := x
		for _, l := range branch {
			cur = l.ForwardCtx(p, cur)
		}
		if cur.Rank() != 3 || (bi > 0 && (cur.Dim(1) != outs[0].Dim(1) || cur.Dim(2) != outs[0].Dim(2))) {
			panic(fmt.Sprintf("nn: inception branch %d output shape %v mismatch", bi, cur.Shape()))
		}
		outs[bi] = cur
		totalC += cur.Dim(0)
	}
	out := newTensor(p, totalC, outs[0].Dim(1), outs[0].Dim(2))
	off := 0
	for bi := range in.Branches {
		off += copy(out.Data()[off:], outs[bi].Data())
	}
	return out
}

// FLOPs implements Layer.
func (in *Inception) FLOPs(shape []int) int64 {
	var total int64
	for _, branch := range in.Branches {
		cur := shape
		for _, l := range branch {
			total += l.FLOPs(cur)
			next, err := l.OutShape(cur)
			if err != nil {
				return total
			}
			cur = next
		}
	}
	return total
}

// Params implements Layer.
func (in *Inception) Params() int64 {
	var total int64
	for _, branch := range in.Branches {
		for _, l := range branch {
			total += l.Params()
		}
	}
	return total
}

// Init implements Layer.
func (in *Inception) Init(rng *rand.Rand) {
	for _, branch := range in.Branches {
		for _, l := range branch {
			l.Init(rng)
		}
	}
}
