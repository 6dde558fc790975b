package nn

import (
	"math"
	"math/rand"
	"testing"

	"lighttrader/internal/tensor"
)

func TestLabelDirections(t *testing.T) {
	mids := []float64{100, 100, 100, 110, 110, 110, 90, 90, 90}
	labels := LabelDirections(mids, 3, 0.01)
	if len(labels) != 6 {
		t.Fatalf("got %d labels", len(labels))
	}
	// t=0: next three mids are 100,100,110 → mean 103.3 → Up.
	if labels[0] != Up {
		t.Fatalf("label[0] = %v", labels[0])
	}
	// t=3: next three are 110,110,90 → mean 103.3 vs 110 → Down.
	if labels[3] != Down {
		t.Fatalf("label[3] = %v", labels[3])
	}
}

func TestLabelDirectionsStationary(t *testing.T) {
	mids := []float64{100, 100.001, 100.002, 100.001, 100}
	labels := LabelDirections(mids, 2, 0.01)
	for i, l := range labels {
		if l != Stationary {
			t.Fatalf("label[%d] = %v for a flat series", i, l)
		}
	}
	if LabelDirections(mids, 0, 0.01) != nil {
		t.Fatal("zero horizon must yield nil")
	}
	if LabelDirections(mids[:2], 5, 0.01) != nil {
		t.Fatal("short series must yield nil")
	}
}

func TestLabelDirectionsZeroMid(t *testing.T) {
	labels := LabelDirections([]float64{0, 0, 0, 0}, 2, 0.01)
	for _, l := range labels {
		if l != Stationary {
			t.Fatal("zero mid must label stationary, not divide by zero")
		}
	}
}

// numericalGradCheck compares analytic parameter gradients against finite
// differences for a tiny dense layer.
func TestDenseGradientCheck(t *testing.T) {
	d := NewDense(3, 2, ActTanh)
	d.Init(rand.New(rand.NewSource(5)))
	x := tensor.FromSlice([]float32{0.5, -0.3, 0.8}, 3)

	loss := func() float64 {
		out := d.ForwardCtx(nil, x)
		probs := tensor.Softmax(out)
		return -math.Log(float64(probs.Data()[1]))
	}

	// Analytic gradient.
	out := d.ForwardCtx(nil, x)
	probs := tensor.Softmax(out)
	grad := probs.Clone()
	grad.Data()[1] -= 1
	_ = d.Backward(x, out, grad)
	analytic := append([]float32(nil), d.gw.Data()...)
	d.Update(0) // clear without moving weights

	const eps = 1e-3
	for i := range d.w.Data() {
		orig := d.w.Data()[i]
		d.w.Data()[i] = orig + eps
		d.repack()
		lp := loss()
		d.w.Data()[i] = orig - eps
		d.repack()
		lm := loss()
		d.w.Data()[i] = orig
		d.repack()
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(analytic[i])) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("w[%d]: analytic %v vs numeric %v", i, analytic[i], numeric)
		}
	}
}

func TestConvGradientCheck(t *testing.T) {
	c := NewConv2D(1, 2, 2, 2, 1, 1, 1, 1, ActLeakyReLU)
	c.Init(rand.New(rand.NewSource(9)))
	x := tensor.New(1, 3, 3)
	x.FillRandn(rand.New(rand.NewSource(2)), 1)
	d := NewDense(2*4*4, NumClasses, ActNone)
	d.Init(rand.New(rand.NewSource(3)))

	forward := func() (*tensor.Tensor, *tensor.Tensor, *tensor.Tensor) {
		co := c.ForwardCtx(nil, x)
		fo := co.Reshape(co.Size())
		lo := d.ForwardCtx(nil, fo)
		return co, fo, lo
	}
	loss := func() float64 {
		_, _, lo := forward()
		probs := tensor.Softmax(lo)
		return -math.Log(float64(probs.Data()[2]))
	}

	co, fo, lo := forward()
	probs := tensor.Softmax(lo)
	grad := probs.Clone()
	grad.Data()[2] -= 1
	gFlat := d.Backward(fo, lo, grad)
	d.Update(0)
	_ = c.Backward(x, co, gFlat.Reshape(co.Shape()...))
	analytic := append([]float32(nil), c.gw.Data()...)
	c.Update(0)

	const eps = 1e-3
	for _, i := range []int{0, 3, 5, 7} {
		orig := c.w.Data()[i]
		c.w.Data()[i] = orig + eps
		c.repack()
		lp := loss()
		c.w.Data()[i] = orig - eps
		c.repack()
		lm := loss()
		c.w.Data()[i] = orig
		c.repack()
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(analytic[i])) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("w[%d]: analytic %v vs numeric %v", i, analytic[i], numeric)
		}
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	p := NewMaxPool2D(2, 2, 0, 0)
	x := tensor.FromSlice([]float32{1, 5, 2, 3}, 1, 2, 2)
	out := p.ForwardCtx(nil, x)
	g := tensor.FromSlice([]float32{7}, 1, 1, 1)
	gi := p.Backward(x, out, g)
	want := []float32{0, 7, 0, 0}
	for i, v := range want {
		if gi.Data()[i] != v {
			t.Fatalf("gradIn = %v, want %v", gi.Data(), want)
		}
	}
}

func TestTrainerRejectsUntrainableModels(t *testing.T) {
	if _, err := NewTrainer(NewTransLOB(), 0.01); err == nil {
		t.Fatal("transformer model accepted for training")
	}
	if _, err := NewTrainer(NewVanillaCNN(), 0.01); err != nil {
		t.Fatalf("CNN rejected: %v", err)
	}
}

// TestTrainingLearnsSyntheticSignal builds a dataset where the class is a
// simple function of the input (sign of the mean of a feature column) and
// checks the CNN actually learns it: loss falls and accuracy beats chance.
func TestTrainingLearnsSyntheticSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	model := NewSizedCNN("trainable", 8, 0)
	trainer, err := NewTrainer(model, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	xs := make([]*tensor.Tensor, n)
	labels := make([]Direction, n)
	for i := range xs {
		x := tensor.New(InputShape()...)
		x.FillRandn(rng, 0.3)
		labels[i] = Direction(rng.Intn(NumClasses))
		// Inject a class-dependent bias into one feature column.
		bias := float32(labels[i]) - 1 // -1, 0, +1
		for h := 0; h < Window; h++ {
			x.Set3(0, h, 0, x.At3(0, h, 0)+bias)
		}
		xs[i] = x
	}
	first, err := trainer.Epoch(xs[:100], labels[:100])
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for e := 0; e < 4; e++ {
		last, err = trainer.Epoch(xs[:100], labels[:100])
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("loss did not fall: %.4f → %.4f", first, last)
	}
	acc, err := Accuracy(model, xs[100:], labels[100:])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.55 {
		t.Fatalf("held-out accuracy %.2f not above chance (0.33)", acc)
	}
}

func TestEpochValidation(t *testing.T) {
	trainer, err := NewTrainer(NewVanillaCNN(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Epoch(make([]*tensor.Tensor, 2), make([]Direction, 3)); err == nil {
		t.Fatal("mismatched dataset accepted")
	}
	if loss, err := trainer.Epoch(nil, nil); err != nil || loss != 0 {
		t.Fatalf("empty epoch: %v %v", loss, err)
	}
}

func TestLSTMGradientCheck(t *testing.T) {
	l := NewLSTM(3, 2, true)
	l.Init(rand.New(rand.NewSource(7)))
	x := tensor.New(4, 3)
	x.FillRandn(rand.New(rand.NewSource(8)), 0.8)
	d := NewDense(2, NumClasses, ActNone)
	d.Init(rand.New(rand.NewSource(9)))

	forward := func() (*tensor.Tensor, *tensor.Tensor) {
		h := l.ForwardCtx(nil, x)
		return h, d.ForwardCtx(nil, h)
	}
	loss := func() float64 {
		_, lo := forward()
		probs := tensor.Softmax(lo)
		return -math.Log(float64(probs.Data()[0]))
	}

	h, lo := forward()
	probs := tensor.Softmax(lo)
	grad := probs.Clone()
	grad.Data()[0] -= 1
	gh := d.Backward(h, lo, grad)
	d.Update(0)
	gi := l.Backward(x, h, gh)
	analyticWx := append([]float32(nil), l.gwx.Data()...)
	analyticWh := append([]float32(nil), l.gwh.Data()...)
	l.Update(0)

	const eps = 1e-3
	check := func(name string, w []float32, analytic []float32, idxs []int) {
		for _, i := range idxs {
			orig := w[i]
			w[i] = orig + eps
			l.repack()
			lp := loss()
			w[i] = orig - eps
			l.repack()
			lm := loss()
			w[i] = orig
			l.repack()
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-float64(analytic[i])) > 2e-2*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, analytic[i], numeric)
			}
		}
	}
	check("wx", l.wx.Data(), analyticWx, []int{0, 5, 11, 17, 23})
	check("wh", l.wh.Data(), analyticWh, []int{0, 3, 7, 11, 15})

	// Input gradient: finite difference on one input element.
	i := 5
	orig := x.Data()[i]
	x.Data()[i] = orig + eps
	lp := loss()
	x.Data()[i] = orig - eps
	lm := loss()
	x.Data()[i] = orig
	numeric := (lp - lm) / (2 * eps)
	if math.Abs(numeric-float64(gi.Data()[i])) > 2e-2*(1+math.Abs(numeric)) {
		t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, gi.Data()[i], numeric)
	}
}

func TestLSTMSequenceGradientCheck(t *testing.T) {
	// Full-sequence output mode: gradient flows into every step.
	l := NewLSTM(2, 2, false)
	l.Init(rand.New(rand.NewSource(3)))
	x := tensor.New(3, 2)
	x.FillRandn(rand.New(rand.NewSource(4)), 0.5)

	loss := func() float64 {
		out := l.ForwardCtx(nil, x)
		var s float64
		for _, v := range out.Data() {
			s += float64(v) * float64(v)
		}
		return s
	}
	out := l.ForwardCtx(nil, x)
	grad := out.Clone()
	for i, v := range out.Data() {
		grad.Data()[i] = 2 * v
	}
	_ = l.Backward(x, out, grad)
	analytic := append([]float32(nil), l.gwx.Data()...)
	l.Update(0)

	const eps = 1e-3
	for _, i := range []int{0, 3, 7, 11, 15} {
		orig := l.wx.Data()[i]
		l.wx.Data()[i] = orig + eps
		l.repack()
		lp := loss()
		l.wx.Data()[i] = orig - eps
		l.repack()
		lm := loss()
		l.wx.Data()[i] = orig
		l.repack()
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(analytic[i])) > 2e-2*(1+math.Abs(numeric)) {
			t.Fatalf("wx[%d]: analytic %v vs numeric %v", i, analytic[i], numeric)
		}
	}
}

func TestDeepLOBNowTrainable(t *testing.T) {
	if _, err := NewTrainer(NewDeepLOB(), 0.001); err != nil {
		t.Fatalf("DeepLOB not trainable: %v", err)
	}
	// TransLOB remains inference-only (transformer backward not implemented).
	if _, err := NewTrainer(NewTransLOB(), 0.001); err == nil {
		t.Fatal("TransLOB unexpectedly trainable")
	}
}

func TestDeepLOBTrainingStepReducesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("full DeepLOB training step is slow")
	}
	m := NewDeepLOB()
	trainer, err := NewTrainer(m, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	x := tensor.New(InputShape()...)
	x.FillRandn(rng, 0.5)
	first, err := trainer.Step(x, Up)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 6; i++ {
		last, err = trainer.Step(x, Up)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("DeepLOB loss did not fall on a repeated example: %.4f → %.4f", first, last)
	}
}
