package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lighttrader/internal/tensor"
)

func randInput(seed int64) *tensor.Tensor {
	x := tensor.New(InputShape()...)
	x.FillRandn(rand.New(rand.NewSource(seed)), 1)
	return x
}

func TestModelShapesValidate(t *testing.T) {
	models := append(BenchmarkModels(), ComplexityLadder()...)
	for _, m := range models {
		out, err := m.Validate()
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(out) != 1 || out[0] != NumClasses {
			t.Fatalf("%s output shape = %v, want [%d]", m.Name(), out, NumClasses)
		}
	}
}

func TestModelForwardProducesDistribution(t *testing.T) {
	for _, m := range BenchmarkModels() {
		out, err := m.Forward(randInput(7))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		var sum float64
		for _, v := range out.Data() {
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				t.Fatalf("%s: probability out of range: %v", m.Name(), out.Data())
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("%s: probabilities sum to %v", m.Name(), sum)
		}
	}
}

func TestModelDeterministic(t *testing.T) {
	m1 := NewDeepLOB()
	m2 := NewDeepLOB()
	x := randInput(3)
	o1, err1 := m1.Forward(x)
	o2, err2 := m2.Forward(x.Clone())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range o1.Data() {
		if o1.Data()[i] != o2.Data()[i] {
			t.Fatal("same seed, same input, different output")
		}
	}
}

func TestModelInputValidation(t *testing.T) {
	m := NewVanillaCNN()
	if _, err := m.Forward(tensor.New(1, 10, 40)); err == nil {
		t.Fatal("wrong input shape accepted")
	}
	if _, _, err := m.Predict(tensor.New(2, 2)); err == nil {
		t.Fatal("Predict accepted bad input")
	}
}

func TestPredict(t *testing.T) {
	m := NewTransLOB()
	dir, conf, err := m.Predict(randInput(5))
	if err != nil {
		t.Fatal(err)
	}
	if dir > Up {
		t.Fatalf("direction = %v", dir)
	}
	if conf <= 0 || conf > 1 {
		t.Fatalf("confidence = %v", conf)
	}
}

func TestFLOPRatiosMatchPaper(t *testing.T) {
	// Paper Table II: CNN 93.0G, TransLOB 203.9G, DeepLOB 515.4G total OPs,
	// i.e. ratios 1 : 2.19 : 5.54. Our per-inference counts must land within
	// 40% of those ratios so the latency ordering and rough factors hold.
	cnn := NewVanillaCNN().TotalFLOPs()
	trans := NewTransLOB().TotalFLOPs()
	deep := NewDeepLOB().TotalFLOPs()
	if !(cnn < trans && trans < deep) {
		t.Fatalf("ordering wrong: cnn=%d trans=%d deep=%d", cnn, trans, deep)
	}
	rTrans := float64(trans) / float64(cnn)
	rDeep := float64(deep) / float64(cnn)
	if rTrans < 2.19*0.6 || rTrans > 2.19*1.4 {
		t.Fatalf("TransLOB/CNN ratio = %.2f, want ≈2.19", rTrans)
	}
	if rDeep < 5.54*0.6 || rDeep > 5.54*1.4 {
		t.Fatalf("DeepLOB/CNN ratio = %.2f, want ≈5.54", rDeep)
	}
}

func TestComplexityLadderMonotone(t *testing.T) {
	ladder := ComplexityLadder()
	if len(ladder) != 5 {
		t.Fatalf("ladder size %d", len(ladder))
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].TotalFLOPs() <= ladder[i-1].TotalFLOPs() {
			t.Fatalf("%s (%d) not more complex than %s (%d)",
				ladder[i].Name(), ladder[i].TotalFLOPs(),
				ladder[i-1].Name(), ladder[i-1].TotalFLOPs())
		}
	}
}

func TestParamsPositive(t *testing.T) {
	for _, m := range BenchmarkModels() {
		if m.Params() <= 0 {
			t.Fatalf("%s params = %d", m.Name(), m.Params())
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	c := NewConv2D(1, 1, 2, 2, 1, 1, 0, 0, ActNone)
	for i := range c.w.Data() {
		c.w.Data()[i] = 1
	}
	c.repack()
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	out := c.ForwardCtx(nil, x)
	want := []float32{12, 16, 24, 28} // 2x2 sums
	for i, v := range want {
		if out.Data()[i] != v {
			t.Fatalf("conv out = %v, want %v", out.Data(), want)
		}
	}
}

func TestConv2DPadding(t *testing.T) {
	c := NewConv2D(1, 1, 3, 3, 1, 1, 1, 1, ActNone)
	for i := range c.w.Data() {
		c.w.Data()[i] = 1
	}
	c.repack()
	x := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 2, 2)
	out := c.ForwardCtx(nil, x)
	if !shapeEq(out.Shape(), []int{1, 2, 2}) {
		t.Fatalf("padded shape = %v", out.Shape())
	}
	// Every output sees all four ones (kernel covers the whole input).
	for _, v := range out.Data() {
		if v != 4 {
			t.Fatalf("padded conv out = %v", out.Data())
		}
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	p := NewMaxPool2D(2, 2, 0, 0)
	x := tensor.FromSlice([]float32{1, 5, 2, 3, 4, 0, 7, 1, 9, 2, 3, 8, 0, 1, 2, 6}, 1, 4, 4)
	out := p.ForwardCtx(nil, x)
	want := []float32{5, 7, 9, 8}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Fatalf("pool out = %v, want %v", out.Data(), want)
		}
	}
}

func TestLSTMGateBehaviour(t *testing.T) {
	// With zero weights and zero bias, gates are sigmoid(0)=0.5 and the
	// candidate is tanh(0)=0, so the hidden state stays exactly zero.
	l := NewLSTM(2, 3, true)
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	out := l.ForwardCtx(nil, x)
	for _, v := range out.Data() {
		if v != 0 {
			t.Fatalf("zero-weight LSTM output = %v", out.Data())
		}
	}
}

func TestLSTMSequenceOutput(t *testing.T) {
	l := NewLSTM(2, 3, false)
	l.Init(rand.New(rand.NewSource(1)))
	x := tensor.New(5, 2)
	x.FillRandn(rand.New(rand.NewSource(2)), 1)
	out := l.ForwardCtx(nil, x)
	if !shapeEq(out.Shape(), []int{5, 3}) {
		t.Fatalf("sequence output shape = %v", out.Shape())
	}
}

func TestLayerNormNormalises(t *testing.T) {
	ln := NewLayerNorm(4)
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 2, 4)
	out := ln.ForwardCtx(nil, x)
	for r := 0; r < 2; r++ {
		var mean, variance float64
		for c := 0; c < 4; c++ {
			mean += float64(out.At2(r, c))
		}
		mean /= 4
		for c := 0; c < 4; c++ {
			d := float64(out.At2(r, c)) - mean
			variance += d * d
		}
		variance /= 4
		if math.Abs(mean) > 1e-5 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("row %d: mean %v var %v", r, mean, variance)
		}
	}
}

func TestTransformerBlockResidual(t *testing.T) {
	b := NewTransformerBlock(8, 2, 16)
	// Zero weights: attention output and FF output are zero, so the block
	// must act as identity thanks to the residual connections.
	x := tensor.New(3, 8)
	x.FillRandn(rand.New(rand.NewSource(3)), 1)
	out := b.ForwardCtx(nil, x)
	for i := range x.Data() {
		if math.Abs(float64(out.Data()[i]-x.Data()[i])) > 1e-5 {
			t.Fatalf("zero-weight transformer not identity at %d: %v vs %v", i, out.Data()[i], x.Data()[i])
		}
	}
}

func TestTransformerBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dim not divisible by heads accepted")
		}
	}()
	NewTransformerBlock(7, 2, 8)
}

func TestActivations(t *testing.T) {
	cases := []struct {
		act  Activation
		in   float32
		want float32
	}{
		{ActNone, -2, -2},
		{ActReLU, -2, 0},
		{ActReLU, 3, 3},
		{ActLeakyReLU, -2, -0.02},
		{ActTanh, 0, 0},
		{ActSigmoid, 0, 0.5},
		{ActTanh, 100, 1},
		{ActSigmoid, -100, 0},
	}
	for _, c := range cases {
		if got := c.act.apply(c.in); math.Abs(float64(got-c.want)) > 1e-6 {
			t.Fatalf("%v(%v) = %v, want %v", c.act, c.in, got, c.want)
		}
	}
}

// TestQuickSoftmaxLayerDistribution checks the final layer always yields a
// valid distribution for random logits.
func TestQuickSoftmaxLayerDistribution(t *testing.T) {
	sm := SoftmaxLayer{}
	f := func(a, b, c float32) bool {
		for _, v := range []float32{a, b, c} {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true
			}
		}
		out := sm.ForwardCtx(nil, tensor.FromSlice([]float32{a, b, c}, 3))
		var sum float64
		for _, v := range out.Data() {
			if v < 0 || math.IsNaN(float64(v)) {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqFromCHW(t *testing.T) {
	x := tensor.New(2, 3, 2) // C=2,H=3,W=2
	for c := 0; c < 2; c++ {
		for h := 0; h < 3; h++ {
			for w := 0; w < 2; w++ {
				x.Set3(c, h, w, float32(c*100+h*10+w))
			}
		}
	}
	out := SeqFromCHW{}.ForwardCtx(nil, x)
	if !shapeEq(out.Shape(), []int{3, 4}) {
		t.Fatalf("shape = %v", out.Shape())
	}
	// Row t holds [c0w0, c0w1, c1w0, c1w1] for h=t.
	if out.At2(1, 0) != 10 || out.At2(1, 1) != 11 || out.At2(1, 2) != 110 || out.At2(1, 3) != 111 {
		t.Fatalf("row 1 = %v", out.Data()[4:8])
	}
}

func TestDenseKnownValues(t *testing.T) {
	d := NewDense(2, 2, ActNone)
	copy(d.w.Data(), []float32{1, 2, 3, 4})
	d.repack()
	d.b[0], d.b[1] = 10, 20
	out := d.ForwardCtx(nil, tensor.FromSlice([]float32{1, 1}, 2))
	if out.Data()[0] != 13 || out.Data()[1] != 27 {
		t.Fatalf("dense out = %v", out.Data())
	}
}

func TestInceptionConcat(t *testing.T) {
	inc := &Inception{Branches: [][]Layer{
		{NewConv2D(1, 2, 1, 1, 1, 1, 0, 0, ActNone)},
		{NewConv2D(1, 3, 1, 1, 1, 1, 0, 0, ActNone)},
	}}
	out, err := inc.OutShape([]int{1, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !shapeEq(out, []int{5, 4, 4}) {
		t.Fatalf("inception out shape = %v", out)
	}
	x := tensor.New(1, 4, 4)
	y := inc.ForwardCtx(nil, x)
	if !shapeEq(y.Shape(), []int{5, 4, 4}) {
		t.Fatalf("forward shape = %v", y.Shape())
	}
}

func TestInceptionMismatchedBranches(t *testing.T) {
	inc := &Inception{Branches: [][]Layer{
		{NewConv2D(1, 2, 1, 1, 1, 1, 0, 0, ActNone)},
		{NewConv2D(1, 2, 2, 2, 1, 1, 0, 0, ActNone)}, // shrinks spatially
	}}
	if _, err := inc.OutShape([]int{1, 4, 4}); err == nil {
		t.Fatal("mismatched branch shapes accepted")
	}
}

func BenchmarkForwardVanillaCNN(b *testing.B) {
	m := NewVanillaCNN()
	x := randInput(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardDeepLOB(b *testing.B) {
	m := NewDeepLOB()
	x := randInput(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}
