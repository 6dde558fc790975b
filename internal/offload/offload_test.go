package offload

import (
	"math"
	"reflect"
	"testing"

	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
	"lighttrader/internal/tensor"
)

// quietTicks returns the first n ticks of the quiet scenario.
func quietTicks(t *testing.T, n int) []feed.Tick {
	t.Helper()
	src, err := scenario.ByName("quiet", 1)
	if err != nil {
		t.Fatal(err)
	}
	return src.Ticks()[:n]
}

func snapshots(t *testing.T, n int) []lob.Snapshot {
	t.Helper()
	ticks := quietTicks(t, n)
	out := make([]lob.Snapshot, n)
	for i := range ticks {
		out[i] = ticks[i].Snapshot
	}
	return out
}

func TestCalibrateNormalizer(t *testing.T) {
	snaps := snapshots(t, 500)
	norm := Calibrate(snaps)
	// Normalising the calibration set must give ~zero mean, ~unit std for
	// varying features.
	var sum, sumSq [nn.Features]float64
	for i := range snaps {
		f := snaps[i].Features()
		norm.Apply(&f)
		for j, v := range f {
			sum[j] += v
			sumSq[j] += v * v
		}
	}
	cnt := float64(len(snaps))
	for j := 0; j < nn.Features; j++ {
		mean := sum[j] / cnt
		if math.Abs(mean) > 1e-3 {
			t.Fatalf("feature %d normalised mean %v", j, mean)
		}
		variance := sumSq[j]/cnt - mean*mean
		if norm.Std[j] != 1 && math.Abs(variance-1) > 1e-3 {
			t.Fatalf("feature %d normalised variance %v", j, variance)
		}
	}
}

func TestCalibrateEmpty(t *testing.T) {
	norm := Calibrate(nil)
	for j := range norm.Std {
		if norm.Std[j] != 1 || norm.Mean[j] != 0 {
			t.Fatalf("empty calibration not identity: %v %v", norm.Mean[j], norm.Std[j])
		}
	}
}

// TestZeroNormalizerIsIdentity: Normalizer{} leaves a snapshot's features
// as they are, where dividing by its zero Std would make them ±Inf or NaN.
func TestZeroNormalizerIsIdentity(t *testing.T) {
	for _, snap := range snapshots(t, 20) {
		raw := snap.Features()
		got := raw
		(&Normalizer{}).Apply(&got)
		for j, v := range got {
			if v != raw[j] || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %d: Normalizer{} gave %v for %v", j, v, raw[j])
			}
		}
	}
}

func TestEngineWarmupThenTensors(t *testing.T) {
	snaps := snapshots(t, nn.Window+10)
	e := NewEngine(Calibrate(snaps), 0)
	for i := 0; i < nn.Window-1; i++ {
		e.Push(snaps[i])
	}
	if _, ok := e.Pop(); e.Warm() || ok || e.Window() != nil {
		t.Fatalf("engine warm too early: %s", e)
	}
	e.Push(snaps[nn.Window-1])
	if !e.Warm() || e.Window() == nil {
		t.Fatalf("engine not warm after %d pushes: %s", nn.Window, e)
	}
	for i := nn.Window; i < nn.Window+10; i++ {
		e.Push(snaps[i])
	}
	if in, ok := e.Pop(); !ok || in.TimeNanos != snaps[len(snaps)-1].TimeNanos {
		t.Fatalf("pop after %d pushes: ok %v, time %d, want the newest snapshot's", len(snaps), ok, in.TimeNanos)
	}
}

// TestWindowStamped: Window lends the current window in place — the same
// values Pop copies — stamped with the engine's source and the push count, so
// consecutive windows carry consecutive positions and another engine's never
// share a source; the next Push, which changes the lent window, unstamps it;
// Pop's copies are unstamped. Lending allocates nothing.
func TestWindowStamped(t *testing.T) {
	snaps := snapshots(t, 3*nn.Window)
	e, other := NewEngine(Calibrate(snaps), 0), NewEngine(Calibrate(snaps), 0)
	var lastSrc, lastPos uint64
	var prev *tensor.Tensor
	for i, s := range snaps {
		e.Push(s)
		other.Push(s)
		if prev != nil {
			if src, _ := prev.Stamp(); src != 0 {
				t.Fatalf("push %d changed the window lent before it, which kept its stamp", i)
			}
		}
		x := e.Window()
		if x == nil {
			continue
		}
		src, pos := x.Stamp()
		if osrc, _ := other.Window().Stamp(); src == 0 || src == osrc {
			t.Fatalf("push %d: source %d, the other engine's %d", i, src, osrc)
		}
		if lastSrc != 0 && (src != lastSrc || pos != lastPos+1) {
			t.Fatalf("push %d: stamp (%d,%d) after (%d,%d)", i, src, pos, lastSrc, lastPos)
		}
		lastSrc, lastPos = src, pos
		in, ok := e.Pop()
		if !ok {
			t.Fatalf("push %d: nothing to pop", i)
		}
		if s, _ := in.Tensor.Stamp(); s != 0 {
			t.Fatalf("push %d: popped copy stamped by %d", i, s)
		}
		for j, v := range x.Data() {
			if in.Tensor.Data()[j] != v {
				t.Fatalf("push %d: element %d lent %v, popped %v", i, j, v, in.Tensor.Data()[j])
			}
		}
		e.Recycle(in.Tensor)
		prev = x
	}
	if n := testing.AllocsPerRun(100, func() { e.Push(snaps[0]); e.Window() }); n != 0 {
		t.Errorf("Push + Window allocates %v per call, want 0", n)
	}
}

func TestTensorShapeAndOrdering(t *testing.T) {
	snaps := snapshots(t, nn.Window+1)
	e := NewEngine(Normalizer{Std: unitStd()}, 0)
	for _, s := range snaps[:nn.Window] {
		e.Push(s)
	}
	in, ok := e.Pop()
	if !ok {
		t.Fatal("no tensor after a full window")
	}
	tt := in.Tensor
	if tt.Dim(0) != 1 || tt.Dim(1) != nn.Window || tt.Dim(2) != nn.Features {
		t.Fatalf("tensor shape %v", tt.Shape())
	}
	// Row 0 is the oldest snapshot, last row the newest (identity norm →
	// values equal raw features rounded to BF16).
	first := snaps[0].Features()
	last := snaps[nn.Window-1].Features()
	if tt.At3(0, 0, 0) != bf16(first[0]) {
		t.Fatalf("row 0 = %v, want oldest %v", tt.At3(0, 0, 0), bf16(first[0]))
	}
	if tt.At3(0, nn.Window-1, 0) != bf16(last[0]) {
		t.Fatalf("last row = %v, want newest %v", tt.At3(0, nn.Window-1, 0), bf16(last[0]))
	}
}

func unitStd() [nn.Features]float64 {
	var s [nn.Features]float64
	for i := range s {
		s[i] = 1
	}
	return s
}

func bf16(v float64) float32 { return tensor.RoundBF16(float32(v)) }

// TestPopOncePerPush: Pop copies the current window once per Push — pushes
// it missed are not queued — and the copy is the consumer's: a later Push
// leaves it as it was.
func TestPopOncePerPush(t *testing.T) {
	snaps := snapshots(t, nn.Window+20)
	e := NewEngine(Normalizer{Std: unitStd()}, 4)
	for _, s := range snaps {
		e.Push(s)
	}
	in, ok := e.Pop()
	if !ok || in.TimeNanos != snaps[len(snaps)-1].TimeNanos {
		t.Fatalf("pop: ok %v, time %d, want the newest snapshot's", ok, in.TimeNanos)
	}
	if _, ok := e.Pop(); ok {
		t.Fatal("a second pop after one push returned a tensor")
	}
	kept := in.Tensor.Clone()
	e.Push(snaps[0])
	if !reflect.DeepEqual(kept.Data(), in.Tensor.Data()) {
		t.Fatal("a push changed a popped tensor")
	}
	if _, ok := e.Pop(); !ok {
		t.Fatal("no tensor after the next push")
	}
}

func TestPopEmpty(t *testing.T) {
	e := NewEngine(Normalizer{Std: unitStd()}, 0)
	if _, ok := e.Pop(); ok {
		t.Fatal("pop from an empty engine returned a tensor")
	}
}

func TestBuildDataset(t *testing.T) {
	ticks := quietTicks(t, nn.Window+60)
	norm := Calibrate(snapshotsFrom(ticks))
	xs, ys := BuildDataset(ticks, norm, 20, 1e-6)
	if len(xs) == 0 || len(xs) != len(ys) {
		t.Fatalf("dataset %d/%d", len(xs), len(ys))
	}
	// Window fills at tick 100 (index 99); labels exist up to len-horizon.
	want := len(ticks) - 20 - (nn.Window - 1)
	if len(xs) != want {
		t.Fatalf("examples = %d, want %d", len(xs), want)
	}
	for i, x := range xs {
		if x.Dim(1) != nn.Window || x.Dim(2) != nn.Features {
			t.Fatalf("example %d shape %v", i, x.Shape())
		}
	}
	for i, y := range ys {
		if y >= nn.NumClasses {
			t.Fatalf("label %d = %v is no class", i, y)
		}
	}
}

func TestBuildDatasetTooShort(t *testing.T) {
	ticks := quietTicks(t, 50)
	if xs, _ := BuildDataset(ticks, Normalizer{Std: unitStd()}, 20, 1e-6); xs != nil {
		t.Fatal("short trace produced examples")
	}
	if xs, _ := BuildDataset(ticks, Normalizer{Std: unitStd()}, 0, 1e-6); xs != nil {
		t.Fatal("zero horizon produced examples")
	}
}

func snapshotsFrom(ticks []feed.Tick) []lob.Snapshot {
	out := make([]lob.Snapshot, len(ticks))
	for i := range ticks {
		out[i] = ticks[i].Snapshot
	}
	return out
}
