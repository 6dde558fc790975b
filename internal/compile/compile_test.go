package compile

import (
	"testing"

	"lighttrader/internal/cgra"
	"lighttrader/internal/nn"
)

func spec() cgra.Spec { return cgra.DefaultSpec() }

func TestCompileBenchmarkModels(t *testing.T) {
	for _, m := range nn.BenchmarkModels() {
		k, err := Compile(m, spec())
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(k.Blocks) == 0 {
			t.Fatalf("%s: no hyperblocks", m.Name())
		}
		if k.TotalFLOPs != m.TotalFLOPs() {
			t.Fatalf("%s: kernel FLOPs %d != model %d", m.Name(), k.TotalFLOPs, m.TotalFLOPs())
		}
		if k.InputBytes != int64(nn.Window*nn.Features*2) {
			t.Fatalf("%s: input bytes %d", m.Name(), k.InputBytes)
		}
		if k.Activity <= 0 || k.Activity > 1 {
			t.Fatalf("%s: activity %v", m.Name(), k.Activity)
		}
		if k.WeightBytes != m.Params()*2 {
			t.Fatalf("%s: weight bytes %d", m.Name(), k.WeightBytes)
		}
	}
}

func TestLatencyOrderingMatchesComplexity(t *testing.T) {
	s := spec()
	top := cgra.DVFSState{FreqGHz: s.MaxFreqGHz, Volt: s.MaxVolt}
	var prev int64
	for _, m := range []*nn.Model{nn.NewVanillaCNN(), nn.NewTransLOB(), nn.NewDeepLOB()} {
		k, err := Compile(m, s)
		if err != nil {
			t.Fatal(err)
		}
		ns := k.InferenceNanos(s, top, 1)
		if ns <= prev {
			t.Fatalf("%s latency %d ns not above previous %d", m.Name(), ns, prev)
		}
		prev = ns
	}
}

func TestDeepLOBNeedsEPE(t *testing.T) {
	k, err := Compile(nn.NewDeepLOB(), spec())
	if err != nil {
		t.Fatal(err)
	}
	var recurrent, epe bool
	for _, b := range k.Blocks {
		if b.Kind == cgra.KindRecurrent {
			recurrent = true
		}
		if b.NeedsEPE {
			epe = true
		}
	}
	if !recurrent || !epe {
		t.Fatalf("DeepLOB kernel missing recurrent (%v) or EPE (%v) blocks", recurrent, epe)
	}
}

// TestEPEBlocksFollowLayers: the datapath split of paper §III — only
// exponential-class work (attention, softmax, layer norm, tanh/sigmoid
// activations; LSTM gates in TestDeepLOBNeedsEPE) is mapped onto the
// extended PEs.
func TestEPEBlocksFollowLayers(t *testing.T) {
	conv := func(name string, act nn.Activation) *nn.Model {
		return &nn.Model{ModelName: name, InputShape: []int{1, 4, 4},
			Layers: []nn.Layer{nn.NewConv2D(1, 2, 2, 2, 1, 1, 0, 0, act)}}
	}
	for _, tc := range []struct {
		m    *nn.Model
		want bool
	}{
		{nn.NewTransLOB(), true},
		{conv("conv-tanh", nn.ActTanh), true},
		{conv("conv-relu", nn.ActReLU), false},
	} {
		k, err := Compile(tc.m, spec())
		if err != nil {
			t.Fatal(err)
		}
		epe := false
		for _, b := range k.Blocks {
			epe = epe || b.NeedsEPE
		}
		if epe != tc.want {
			t.Errorf("%s: EPE blocks %v, want %v", tc.m.Name(), epe, tc.want)
		}
	}
}

func TestBatchInsensitivity(t *testing.T) {
	// §III-C: nested loops are mapped with minimal batch-level parallelism
	// to acquire batch-insensitive inference performance. Latency at batch 4
	// must grow far less than 4×.
	s := spec()
	top := cgra.DVFSState{FreqGHz: s.MaxFreqGHz, Volt: s.MaxVolt}
	k, err := Compile(nn.NewVanillaCNN(), s)
	if err != nil {
		t.Fatal(err)
	}
	l1 := k.InferenceNanos(s, top, 1)
	l4 := k.InferenceNanos(s, top, 4)
	if l4 < l1 {
		t.Fatal("batch 4 faster than batch 1")
	}
	if float64(l4) > 3.0*float64(l1) {
		t.Fatalf("batch 4 latency %d ns vs batch 1 %d ns: not batch-insensitive", l4, l1)
	}
	// Throughput must still improve with batching.
	if float64(l4)/4 >= float64(l1) {
		t.Fatalf("batching gave no throughput gain: l1=%d l4=%d", l1, l4)
	}
}

func TestActivityOrdering(t *testing.T) {
	// EPE-heavy, memory-heavy models must not report lower activity than
	// the activity floor and must stay in (0,1].
	s := spec()
	for _, m := range nn.BenchmarkModels() {
		k, err := Compile(m, s)
		if err != nil {
			t.Fatal(err)
		}
		if k.Activity <= 0.01 || k.Activity > 1 {
			t.Fatalf("%s activity = %v", m.Name(), k.Activity)
		}
	}
}

func TestCompileComplexityLadderMonotone(t *testing.T) {
	s := spec()
	top := cgra.DVFSState{FreqGHz: s.MaxFreqGHz, Volt: s.MaxVolt}
	var prev int64
	for _, m := range nn.ComplexityLadder() {
		k, err := Compile(m, s)
		if err != nil {
			t.Fatal(err)
		}
		ns := k.InferenceNanos(s, top, 1)
		if ns <= prev {
			t.Fatalf("%s latency %d not monotone", m.Name(), ns)
		}
		prev = ns
	}
}

func TestCompileInvalidModel(t *testing.T) {
	bad := &nn.Model{ModelName: "bad", InputShape: []int{1, 4, 4},
		Layers: []nn.Layer{nn.NewDense(999, 3, nn.ActNone)}}
	if _, err := Compile(bad, spec()); err == nil {
		t.Fatal("invalid model compiled")
	}
}

// TestReportKernels logs calibration data recorded in EXPERIMENTS.md.
func TestReportKernels(t *testing.T) {
	s := spec()
	top := cgra.DVFSState{FreqGHz: s.MaxFreqGHz, Volt: s.MaxVolt}
	for _, m := range append(nn.BenchmarkModels(), nn.ComplexityLadder()...) {
		k, err := Compile(m, s)
		if err != nil {
			t.Fatal(err)
		}
		ns := k.InferenceNanos(s, top, 1)
		util := float64(k.TotalFLOPs) / float64(k.CyclesForBatch(s, 1)) / float64(s.FLOPsPerCycle())
		t.Logf("%-12s blocks=%3d  lat@2.2GHz=%7.2fµs  util=%.3f  act=%.3f  effTFLOPS=%.2f",
			m.Name(), len(k.Blocks), float64(ns)/1000, util, k.Activity, float64(k.TotalFLOPs)/float64(ns)/1e3)
	}
}

func TestResourceChecks(t *testing.T) {
	s := spec()
	// The benchmark models fit on chip without spilling.
	for _, m := range nn.BenchmarkModels() {
		k, err := Compile(m, s)
		if err != nil {
			t.Fatal(err)
		}
		if k.SpillsToL2 {
			t.Fatalf("%s spilled with %d B weights, %d B peak activation",
				m.Name(), k.WeightBytes, k.PeakActivationBytes)
		}
		if k.InstrBytes <= 0 || k.PeakActivationBytes <= 0 {
			t.Fatalf("%s resource accounting empty: %+v", m.Name(), k)
		}
	}
	// A parameter-heavy model must spill: a dense layer with ~8M params
	// (16 MB BF16) exceeds the 4 MB DMEM.
	big := &nn.Model{ModelName: "spiller", InputShape: []int{1, 100, 40},
		Layers: []nn.Layer{
			nn.Flatten{},
			nn.NewDense(4000, 2000, nn.ActReLU),
			nn.NewDense(2000, nn.NumClasses, nn.ActNone),
		}}
	k, err := Compile(big, s)
	if err != nil {
		t.Fatal(err)
	}
	if !k.SpillsToL2 {
		t.Fatalf("16 MB of weights did not spill (DMEM %d B)", s.DMEMBytes)
	}
	// A model with more hyperblocks than IMEM can hold must be rejected.
	deep := &nn.Model{ModelName: "unmappable", InputShape: []int{1, 100, 40}}
	deep.Layers = append(deep.Layers, nn.NewConv2D(1, 4, 1, 1, 1, 1, 0, 0, nn.ActReLU))
	for i := 0; i < 40; i++ {
		deep.Layers = append(deep.Layers, nn.NewConv2D(4, 4, 3, 1, 1, 1, 1, 0, nn.ActReLU))
	}
	if _, err := Compile(deep, s); err == nil {
		t.Fatal("oversized instruction footprint accepted")
	}
}
