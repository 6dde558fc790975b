package nn

import (
	"math"
	"testing"

	"lighttrader/internal/tensor"
)

// TestZooPresetSpecsMatchConstructors proves the one-construction-path
// claim: building the preset specs through BuildZoo is exactly the
// constructor path (same names, layer stacks, params and FLOPs).
func TestZooPresetSpecsMatchConstructors(t *testing.T) {
	cases := []struct {
		spec ZooSpec
		ctor func() *Model
	}{
		{VanillaCNNSpec(), NewVanillaCNN},
		{DeepLOBSpec(), NewDeepLOB},
		{TransLOBSpec(), NewTransLOB},
		{SizedCNNSpec("M3", 32, 7), func() *Model { return NewSizedCNN("M3", 32, 7) }},
	}
	for _, c := range cases {
		built, err := BuildZoo(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		want := c.ctor()
		if built.Name() != want.Name() || len(built.Layers) != len(want.Layers) {
			t.Errorf("%s: zoo build diverges from constructor", c.spec.Name)
		}
		if built.Params() != want.Params() || built.TotalFLOPs() != want.TotalFLOPs() {
			t.Errorf("%s: params/flops diverge: %d/%d vs %d/%d", c.spec.Name,
				built.Params(), built.TotalFLOPs(), want.Params(), want.TotalFLOPs())
		}
	}
}

// TestZooVariantAxes exercises the lookback crop across all three families.
func TestZooVariantAxes(t *testing.T) {
	specs := []ZooSpec{
		{Name: "cnn-lb", Arch: ZooCNN, Width: 8, Depth: 1, Lookback: 32},
		{Name: "lstm-lb", Arch: ZooLSTM, Width: 8, Lookback: 40},
		{Name: "trans-lb", Arch: ZooTransformer, Width: 8, Depth: 1, Lookback: 24},
	}
	x := pinInput()
	for _, s := range specs {
		m, err := BuildZoo(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		shape, err := m.Validate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if prod(shape) != NumClasses {
			t.Fatalf("%s: output size %d, want %d", s.Name, prod(shape), NumClasses)
		}
		// Full-window input contract holds regardless of lookback.
		dir, conf, err := m.Predict(x)
		if err != nil {
			t.Fatalf("%s: Predict: %v", s.Name, err)
		}
		if conf < 0 || conf > 1 || dir > Up {
			t.Fatalf("%s: dir %v conf %v", s.Name, dir, conf)
		}
	}
}

// TestZooSpecValidation rejects malformed specs.
func TestZooSpecValidation(t *testing.T) {
	bad := []ZooSpec{
		{Name: "lb-low", Arch: ZooCNN, Width: 8, Lookback: 4},
		{Name: "lb-high", Arch: ZooCNN, Width: 8, Lookback: Window + 1},
		{Name: "neg-width", Arch: ZooCNN, Width: -1},
		{Name: "odd-embed", Arch: ZooTransformer, Width: 10},
		{Name: "bad-arch", Arch: ZooArch(9)},
		// Stage 2's conv leaves one row; maxpool(2×1) does not fit it.
		{Name: "pool-over-one-row-11", Arch: ZooCNN, Width: 4, ConvPoolStages: 2, Lookback: 11},
		{Name: "pool-over-one-row-12", Arch: ZooCNN, Width: 4, ConvPoolStages: 2, Lookback: 12},
	}
	for _, s := range bad {
		if _, err := BuildZoo(s); err == nil {
			t.Errorf("%s: BuildZoo accepted invalid spec", s.Name)
		}
	}
}

// TestWindowCropBackprop checks the crop layer's gradient routing: the kept
// rows pass through, dropped rows are zero.
func TestWindowCropBackprop(t *testing.T) {
	wc := WindowCrop{Rows: 3}
	x := tensor.New(2, 5, 4)
	for i, d := 0, x.Data(); i < len(d); i++ {
		d[i] = float32(i)
	}
	out := wc.ForwardCtx(nil, x)
	if got, want := out.At3(0, 0, 0), x.At3(0, 2, 0); got != want {
		t.Fatalf("crop kept wrong rows: got %v want %v", got, want)
	}
	gradOut := tensor.New(2, 3, 4)
	for i, d := 0, gradOut.Data(); i < len(d); i++ {
		d[i] = 1
	}
	gradIn := wc.Backward(x, out, gradOut)
	for c := 0; c < 2; c++ {
		for h := 0; h < 5; h++ {
			want := float32(0)
			if h >= 2 {
				want = 1
			}
			if got := gradIn.At3(c, h, 0); got != want {
				t.Fatalf("gradIn[%d,%d,0] = %v, want %v", c, h, got, want)
			}
		}
	}
}

// TestZooLookbackTraining trains a tiny lookback variant (so the gradient
// runs back through the crop) on a fixed-direction toy set and checks the
// loss drops and the model learns the task.
func TestZooLookbackTraining(t *testing.T) {
	m, err := BuildZoo(ZooSpec{Name: "train-lb", Arch: ZooCNN, Width: 4, Lookback: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(m, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Toy task: the sign of the feature map decides the direction.
	xs := make([]*tensor.Tensor, 24)
	labels := make([]Direction, len(xs))
	for i := range xs {
		x := tensor.New(InputShape()...)
		v := float32(1)
		dir := Up
		if i%2 == 0 {
			v, dir = -1, Down
		}
		d := x.Data()
		for j := range d {
			d[j] = v
		}
		xs[i] = x
		labels[i] = dir
	}
	first, err := tr.Epoch(xs, labels)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for e := 0; e < 20; e++ {
		if last, err = tr.Epoch(xs, labels); err != nil {
			t.Fatal(err)
		}
	}
	if math.IsNaN(last) || last >= first {
		t.Fatalf("loss did not drop: first %v last %v", first, last)
	}
	acc, err := Accuracy(m, xs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("accuracy %v after training separable toy task", acc)
	}
}
