package nn

import (
	"math"
	"math/rand"
	"testing"

	"lighttrader/internal/tensor"
)

// Float-tolerance policy (see DESIGN.md): optimized kernels that preserve
// the naive accumulation order must match bit-for-bit; kernels that
// reorder float32 accumulation (the four-chain Dot, a bias added after the
// multiply rather than seeding it) must satisfy |a-b| ≤ atol + rtol·max(|a|,|b|).
const (
	fwdAtol = 1e-4
	fwdRtol = 1e-4
	// BF16 inputs quantise to ~8 mantissa bits, so reordered sums can
	// diverge by a few BF16 ulps.
	bf16Atol = 2e-2
	bf16Rtol = 2e-2
)

func wantClose(t *testing.T, tag string, got, want *tensor.Tensor, atol, rtol float32) {
	t.Helper()
	gs, ws := got.Shape(), want.Shape()
	if len(gs) != len(ws) {
		t.Fatalf("%s: shape %v vs %v", tag, gs, ws)
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("%s: shape %v vs %v", tag, gs, ws)
		}
	}
	for i, w := range want.Data() {
		g := got.Data()[i]
		d := math.Abs(float64(g - w))
		lim := float64(atol) + float64(rtol)*math.Max(math.Abs(float64(g)), math.Abs(float64(w)))
		if d > lim || math.IsNaN(float64(g)) != math.IsNaN(float64(w)) {
			t.Fatalf("%s: elem %d = %v, want %v (diff %v > %v)", tag, i, g, w, d, lim)
		}
	}
}

// checkBothPaths runs the layer through Forward (heap) and ForwardCtx
// (pool) and compares each against a reference output.
func checkBothPaths(t *testing.T, tag string, l Layer, x, want *tensor.Tensor, atol, rtol float32) {
	t.Helper()
	wantClose(t, tag+"/heap", l.Forward(x), want, atol, rtol)
	var p tensor.Pool
	wantClose(t, tag+"/pool", l.ForwardCtx(&p, x), want, atol, rtol)
	// Second run on a recycled pool must reproduce the same output.
	p.Reset()
	wantClose(t, tag+"/pool-reuse", l.ForwardCtx(&p, x), want, atol, rtol)
}

// TestConv2DMatchesReference property-tests the im2col+GEMM convolution
// against the naive loop over randomized shapes, strides and padding.
func TestConv2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	acts := []Activation{ActNone, ActReLU, ActLeakyReLU, ActTanh, ActSigmoid}
	for i := 0; i < 250; i++ {
		inC, outC := 1+rng.Intn(6), 1+rng.Intn(8)
		kh, kw := 1+rng.Intn(5), 1+rng.Intn(5)
		sh, sw := 1+rng.Intn(3), 1+rng.Intn(3)
		ph, pw := rng.Intn(3), rng.Intn(3)
		h := kh + rng.Intn(20)
		w := kw + rng.Intn(20)
		c := NewConv2D(inC, outC, kh, kw, sh, sw, ph, pw, acts[rng.Intn(len(acts))])
		c.Init(rng)
		for j := range c.b {
			c.b[j] = float32(rng.NormFloat64())
		}
		x := tensor.New(inC, h, w)
		x.FillRandn(rng, 1)
		if _, err := c.OutShape(x.Shape()); err != nil {
			continue // padding/stride combination collapses; skip
		}
		checkBothPaths(t, c.Name(), c, x, referenceConv(c, x), fwdAtol, fwdRtol)
	}
}

// TestConv2DBF16MatchesReference repeats the sweep with BF16-rounded
// weights and inputs, the accelerator's storage precision.
func TestConv2DBF16MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 80; i++ {
		inC, outC := 1+rng.Intn(4), 1+rng.Intn(6)
		kh, kw := 1+rng.Intn(4), 1+rng.Intn(4)
		c := NewConv2D(inC, outC, kh, kw, 1+rng.Intn(2), 1+rng.Intn(2), rng.Intn(2), rng.Intn(2), ActLeakyReLU)
		c.Init(rng)
		c.w.RoundBF16()
		tensor.RoundSliceBF16(c.b)
		c.repack()
		x := tensor.New(inC, kh+rng.Intn(12), kw+rng.Intn(12))
		x.FillRandn(rng, 1)
		x.RoundBF16()
		if _, err := c.OutShape(x.Shape()); err != nil {
			continue
		}
		want := referenceConv(c, x).RoundBF16()
		got := c.Forward(x).RoundBF16()
		wantClose(t, c.Name()+"/bf16", got, want, bf16Atol, bf16Rtol)
	}
}

// convVia runs c with the multiply lowering forced: the in-place one, or
// im2col + GEMM (production code for every other geometry, and the
// reference the in-place path must reproduce bit for bit).
func convVia(c *Conv2D, p *tensor.Pool, x *tensor.Tensor, inPlace bool) *tensor.Tensor {
	shape, err := c.OutShape(x.Shape())
	if err != nil {
		panic(err)
	}
	var out *tensor.Tensor
	if inPlace {
		if c.wt == nil { // a patch too short for ForwardCtx to pick it: pack wt anyway
			c.wt = make([]float32, len(c.w.Data()))
			c.repack()
		}
		out = newTensor(p, shape...)
		c.mulInPlace(p, x, out)
	} else {
		out = c.mulGEMM(p, x, shape[1], shape[2])
	}
	c.biasAct(out)
	return out
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float32bits(v) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// wantSameBits fails unless got and want agree bit for bit, except that any
// NaN matches any NaN: which payload a NaN-with-NaN add returns depends on
// the operand order each panel kernel uses (tensor's sameFloat), and a full
// pass and a memo row can send one output through different kernels, since
// each leaves its own scalar tail.
func wantSameBits(t *testing.T, tag string, got, want *tensor.Tensor) {
	t.Helper()
	if !shapeEq(got.Shape(), want.Shape()) {
		t.Fatalf("%s: shape %v vs %v", tag, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
			t.Fatalf("%s: elem %d = %v (%#08x), want %v (%#08x)", tag, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// fullWidthCase draws the i-th full-width geometry (KW == W, no width
// padding) of a sweep: every activation in turn, non-zero bias, H from the
// smallest value the kernel fits, so rows clipped at the top, the bottom and
// both at once (H < KH) all occur, as do odd OutC and odd oh for the tile
// remainders and InC > 1 for the chain continuing across channels.
func fullWidthCase(rng *rand.Rand, i int) (*Conv2D, *tensor.Tensor) {
	acts := []Activation{ActNone, ActReLU, ActLeakyReLU, ActTanh, ActSigmoid}
	inC, outC := 1+rng.Intn(6), 1+rng.Intn(9)
	kh, sh, ph := 1+rng.Intn(5), 1+rng.Intn(3), rng.Intn(4)
	w := 1 + rng.Intn(40)
	h := max(1, kh-2*ph) + rng.Intn(3)*rng.Intn(8)
	c := NewConv2D(inC, outC, kh, w, sh, 1+rng.Intn(3), ph, 0, acts[i%len(acts)])
	c.Init(rng)
	for j := range c.b {
		c.b[j] = float32(rng.NormFloat64())
	}
	x := tensor.New(inC, h, w)
	x.FillRandn(rng, 1)
	return c, x
}

// TestConv2DDirectMatchesIm2colBitExact is the contract of the in-place
// lowering: on every full-width geometry it produces the bits im2col + GEMM
// does — heap and pool, and through ForwardCtx whichever of the two it
// selects — and stays within the fp32 tolerance of the naive loop.
func TestConv2DDirectMatchesIm2colBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var exactFit, shortInput, multiChannel, oddRows, oddOutC, selected int
	for i := 0; i < 600; i++ {
		c, x := fullWidthCase(rng, i)
		h, w := x.Dim(1), x.Dim(2)
		want := convVia(c, nil, x, false)
		if want.Dim(2) != 1 {
			t.Fatalf("%s on %v: ow = %d, want 1", c.Name(), x.Shape(), want.Dim(2))
		}
		got := convVia(c, nil, x, true)
		wantSameBits(t, c.Name()+"/heap", got, want)
		wantClose(t, c.Name()+"/reference", got, referenceConv(c, x), fwdAtol, fwdRtol)
		var p tensor.Pool
		for round := 0; round < 2; round++ {
			p.Reset()
			wantSameBits(t, c.Name()+"/pool", convVia(c, &p, x, true), want)
			wantSameBits(t, c.Name()+"/forward", c.ForwardCtx(&p, x), want)
		}
		exactFit += b2i(h+2*c.PadH == c.KH)
		shortInput += b2i(h < c.KH)
		multiChannel += b2i(c.InC > 1)
		oddRows += b2i(want.Dim(1)%2 == 1)
		oddOutC += b2i(c.OutC%2 == 1)
		selected += b2i(c.inPlace(w))
	}
	for name, n := range map[string]int{
		"H+2·PadH == KH": exactFit, "H < KH": shortInput, "InC > 1": multiChannel,
		"odd oh": oddRows, "odd OutC": oddOutC, "selected by ForwardCtx": selected,
	} {
		if n < 20 {
			t.Errorf("sweep met only %d cases with %s", n, name)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestConv2DDirectBF16 repeats the sweep at the accelerator's storage
// precision: BF16-rounded weights, bias and input.
func TestConv2DDirectBF16(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 120; i++ {
		c, x := fullWidthCase(rng, i)
		c.w.RoundBF16()
		tensor.RoundSliceBF16(c.b)
		c.repack()
		x.RoundBF16()
		got := convVia(c, nil, x, true)
		wantSameBits(t, c.Name()+"/bf16", got, convVia(c, nil, x, false))
		wantClose(t, c.Name()+"/bf16-reference", got.RoundBF16(), referenceConv(c, x).RoundBF16(), bf16Atol, bf16Rtol)
	}
}

// TestOutShapeRejectsWindowLargerThanInput: with stride ≥ 2 the truncating
// division used to report one output position for a window up to stride−1
// longer than the padded input; the forward pass then read the next
// channel's rows (or past the tensor). Both layers must refuse the shape,
// in OutShape and in the ForwardCtx guard, along H and along W.
func TestOutShapeRejectsWindowLargerThanInput(t *testing.T) {
	cases := []struct {
		n, k, s, pad int
		want         int // output length, 0 = refused
	}{
		{1, 2, 2, 0, 0}, // the zoo case: maxpool(2×1) over one row
		{3, 4, 2, 0, 0},
		{2, 4, 3, 0, 0},
		{3, 5, 3, 0, 0},
		{1, 4, 2, 1, 0}, // padded input still one short
		{1, 5, 3, 1, 0},
		{2, 2, 2, 0, 1}, // exact fit
		{2, 4, 2, 1, 1}, // exact fit with padding
		{1, 3, 3, 1, 1},
		{5, 2, 2, 0, 2},
		{4, 3, 1, 0, 2},
	}
	for _, tc := range cases {
		checkOutShape(t, NewConv2D(2, 2, tc.k, 3, tc.s, 1, tc.pad, 0, ActNone), []int{2, tc.n, 3}, []int{2, tc.want, 1})
		checkOutShape(t, NewConv2D(2, 2, 3, tc.k, 1, tc.s, 0, tc.pad, ActNone), []int{2, 3, tc.n}, []int{2, 1, tc.want})
		if tc.pad == 0 { // pooling does not pad
			checkOutShape(t, NewMaxPool2D(tc.k, 1, tc.s, 1), []int{2, tc.n, 3}, []int{2, tc.want, 3})
			checkOutShape(t, NewMaxPool2D(1, tc.k, 1, tc.s), []int{2, 3, tc.n}, []int{2, 3, tc.want})
		}
	}
}

// checkOutShape holds l to want on input shape in, through OutShape and
// through Forward; a zero in want means both must refuse the input.
func checkOutShape(t *testing.T, l Layer, in, want []int) {
	t.Helper()
	got, err := l.OutShape(in)
	if prod(want) == 0 {
		if err == nil {
			t.Errorf("%s: OutShape(%v) = %v, want an error", l.Name(), in, got)
		}
		refused := func() (r bool) {
			defer func() { r = recover() != nil }()
			l.Forward(tensor.New(in...))
			return
		}()
		if !refused {
			t.Errorf("%s: Forward on %v did not refuse the input", l.Name(), in)
		}
		return
	}
	if err != nil || !shapeEq(got, want) {
		t.Errorf("%s: OutShape(%v) = %v, %v; want %v", l.Name(), in, got, err, want)
	} else if out := l.Forward(tensor.New(in...)); !shapeEq(out.Shape(), want) {
		t.Errorf("%s: Forward on %v gave %v, want %v", l.Name(), in, out.Shape(), want)
	}
}

func TestMaxPool2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		kh, kw := 1+rng.Intn(4), 1+rng.Intn(4)
		sh, sw := rng.Intn(4), rng.Intn(4) // 0 → kernel-sized stride
		p := NewMaxPool2D(kh, kw, sh, sw)
		x := tensor.New(1+rng.Intn(4), kh+rng.Intn(16), kw+rng.Intn(16))
		x.FillRandn(rng, 1)
		// Max selection is order-independent: exact equality required.
		checkBothPaths(t, p.Name(), p, x, referenceMaxPool(p, x), 0, 0)
	}
}

func TestDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	acts := []Activation{ActNone, ActReLU, ActLeakyReLU, ActTanh, ActSigmoid}
	for i := 0; i < 150; i++ {
		in, out := 1+rng.Intn(200), 1+rng.Intn(100)
		d := NewDense(in, out, acts[rng.Intn(len(acts))])
		d.Init(rng)
		for j := range d.b {
			d.b[j] = float32(rng.NormFloat64())
		}
		x := tensor.New(in)
		x.FillRandn(rng, 1)
		checkBothPaths(t, d.Name(), d, x, referenceDense(d, x), fwdAtol, fwdRtol)
	}
}

func TestLSTMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 100; i++ {
		in, hidden := 1+rng.Intn(48), 1+rng.Intn(48)
		l := NewLSTM(in, hidden, rng.Intn(2) == 0)
		l.Init(rng)
		x := tensor.New(1+rng.Intn(24), in)
		x.FillRandn(rng, 1)
		checkBothPaths(t, l.Name(), l, x, referenceLSTM(l, x), fwdAtol, fwdRtol)
	}
}

func TestLSTMBF16MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 40; i++ {
		in, hidden := 1+rng.Intn(32), 1+rng.Intn(32)
		l := NewLSTM(in, hidden, true)
		l.Init(rng)
		l.wx.RoundBF16()
		l.wh.RoundBF16()
		l.repack()
		tensor.RoundSliceBF16(l.b)
		x := tensor.New(1+rng.Intn(16), in)
		x.FillRandn(rng, 1)
		x.RoundBF16()
		want := referenceLSTM(l, x).RoundBF16()
		got := l.Forward(x).RoundBF16()
		wantClose(t, l.Name()+"/bf16", got, want, bf16Atol, bf16Rtol)
	}
}

func TestTransformerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 60; i++ {
		heads := 1 + rng.Intn(4)
		dim := heads * (1 + rng.Intn(8))
		ff := 1 + rng.Intn(32)
		b := NewTransformerBlock(dim, heads, ff)
		b.Init(rng)
		for _, bias := range [][]float32{b.q.b, b.k.b, b.v.b, b.o.b} {
			for j := range bias {
				bias[j] = float32(rng.NormFloat64() * 0.1)
			}
		}
		x := tensor.New(1+rng.Intn(16), dim)
		x.FillRandn(rng, 1)
		checkBothPaths(t, b.Name(), b, x, referenceTransformer(b, x), fwdAtol, fwdRtol)
	}
}

func TestSeqFromCHWMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 50; i++ {
		x := tensor.New(1+rng.Intn(6), 1+rng.Intn(12), 1+rng.Intn(12))
		x.FillRandn(rng, 1)
		checkBothPaths(t, "seq-from-chw", SeqFromCHW{}, x, referenceSeqFromCHW(x), 0, 0)
	}
}

func TestPositionalEncodingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 50; i++ {
		x := tensor.New(1+rng.Intn(20), 1+rng.Intn(20))
		x.FillRandn(rng, 1)
		// Same per-element arithmetic, loops reordered: exact match.
		checkBothPaths(t, "posenc", PositionalEncoding{}, x, referencePosEnc(x), 0, 0)
	}
}

// TestInferMatchesForward checks Model.Infer (pooled scratch) against
// Model.Forward (heap) on every benchmark architecture, and that a recycled
// pool reproduces identical outputs.
func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, m := range BenchmarkModels() {
		m.Init(7)
		if _, err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		x := tensor.New(m.InputShape...)
		x.FillRandn(rng, 1)
		want, err := m.Forward(x)
		if err != nil {
			t.Fatalf("%s: forward: %v", m.Name(), err)
		}
		var p tensor.Pool
		for round := 0; round < 2; round++ {
			got, err := m.Infer(&p, x)
			if err != nil {
				t.Fatalf("%s: infer: %v", m.Name(), err)
			}
			// Forward and Infer run the same ForwardCtx code (heap vs
			// pool storage), so outputs must be bit-identical.
			wantClose(t, m.Name(), got, want, 0, 0)
		}
		// Shape mismatch must surface as an error, not a panic.
		if _, err := m.Infer(&p, tensor.New(1, 2, 3)); err == nil {
			t.Fatalf("%s: Infer accepted wrong input shape", m.Name())
		}
	}
}

// TestPredictStillClassifies exercises the pooled Predict path.
func TestPredictStillClassifies(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range BenchmarkModels() {
		m.Init(7)
		x := tensor.New(m.InputShape...)
		x.FillRandn(rng, 1)
		dir, conf, err := m.Predict(x)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if dir > Up || conf <= 0 || conf > 1 {
			t.Fatalf("%s: dir %v conf %v", m.Name(), dir, conf)
		}
		// Repeat calls must be deterministic.
		dir2, conf2, _ := m.Predict(x)
		if dir2 != dir || conf2 != conf {
			t.Fatalf("%s: predict not deterministic", m.Name())
		}
	}
}

// raceDetector is set by race_test.go when the race detector is compiled in.
var raceDetector bool

// TestPredictZeroAlloc gates the per-tick inference call: once its pooled
// arena is warm, Predict allocates nothing — for the model perf's wire-cnn
// workload runs, the complexity ladder and the three paper models, on an
// input that stays put (every layer's full pass) and on one that moves up a
// row per call (the convolutions' memos answering).
func TestPredictZeroAlloc(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(32))
	models := append([]*Model{NewSizedCNN("SizedCNN-8-0", 8, 0)}, ComplexityLadder()...)
	for _, m := range append(models, BenchmarkModels()...) {
		x := tensor.New(m.InputShape...)
		x.FillRandn(rng, 1)
		predict := func() {
			if _, _, err := m.Predict(x); err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
		}
		predict() // warm the arena
		if n := testing.AllocsPerRun(10, predict); n != 0 {
			t.Errorf("%s: Predict allocates %v per call, want 0", m.Name(), n)
		}
		xs, tick := slidingInputs(rng, m.InputShape, 12), 0
		x = slide(xs, 0)
		predict()
		next := func() {
			tick++
			x = slide(xs, tick)
			predict()
		}
		if n := testing.AllocsPerRun(10, next); n != 0 {
			t.Errorf("%s: Predict on a sliding input allocates %v per call, want 0", m.Name(), n)
		}
	}
}
