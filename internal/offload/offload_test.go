package offload

import (
	"math"
	"testing"

	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/tensor"
)

// Ready returns the number of pending input tensors (only these tests ask).
func (e *Engine) Ready() int { return e.pendLen }

func snapshots(t *testing.T, n int) []lob.Snapshot {
	t.Helper()
	g, err := feed.NewGenerator(feed.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	ticks := g.Generate(n)
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

func TestEngineWarmupThenTensors(t *testing.T) {
	snaps := snapshots(t, nn.Window+10)
	e := NewEngine(Calibrate(snaps), 0)
	for i := 0; i < nn.Window-1; i++ {
		e.Push(snaps[i])
	}
	if e.Warm() || e.Ready() != 0 {
		t.Fatalf("engine warm too early: %s", e)
	}
	e.Push(snaps[nn.Window-1])
	if !e.Warm() || e.Ready() != 1 {
		t.Fatalf("engine not warm after %d pushes: %s", nn.Window, e)
	}
	for i := nn.Window; i < nn.Window+10; i++ {
		e.Push(snaps[i])
	}
	if e.Ready() != 11 {
		t.Fatalf("ready = %d, want 11", e.Ready())
	}
}

func TestTensorShapeAndOrdering(t *testing.T) {
	snaps := snapshots(t, nn.Window+1)
	e := NewEngine(Normalizer{Std: unitStd()}, 0)
	for _, s := range snaps[:nn.Window] {
		e.Push(s)
	}
	batch := e.PopBatch(1)
	tt := batch[0].Tensor
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

func TestFIFOEviction(t *testing.T) {
	snaps := snapshots(t, nn.Window+20)
	e := NewEngine(Calibrate(snaps), 4)
	for _, s := range snaps {
		e.Push(s)
	}
	if e.Ready() != 4 {
		t.Fatalf("ready = %d, want cap 4", e.Ready())
	}
	if e.Dropped() != 17 {
		t.Fatalf("dropped = %d, want 17", e.Dropped())
	}
	// Remaining tensors are the newest four.
	batch := e.PopBatch(10)
	if len(batch) != 4 {
		t.Fatalf("popped %d", len(batch))
	}
	if batch[3].TimeNanos != snaps[len(snaps)-1].TimeNanos {
		t.Fatal("newest tensor missing after eviction")
	}
}

func TestEvictOlderThan(t *testing.T) {
	snaps := snapshots(t, nn.Window+5)
	e := NewEngine(Calibrate(snaps), 0)
	for _, s := range snaps {
		e.Push(s)
	}
	cutoff := snaps[nn.Window+2].TimeNanos
	evicted := e.EvictOlderThan(cutoff)
	if evicted != 3 {
		t.Fatalf("evicted %d, want 3", evicted)
	}
	if e.Ready() != 3 {
		t.Fatalf("ready = %d, want 3", e.Ready())
	}
}

func TestPopBatchBounds(t *testing.T) {
	e := NewEngine(Normalizer{Std: unitStd()}, 0)
	if got := e.PopBatch(5); len(got) != 0 {
		t.Fatalf("pop from empty = %d", len(got))
	}
}

func TestBuildDataset(t *testing.T) {
	g, err := feed.NewGenerator(feed.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	ticks := g.Generate(nn.Window + 60)
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
	bal := ClassBalance(ys)
	var sum float64
	for _, b := range bal {
		sum += b
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("class balance %v does not sum to 1", bal)
	}
}

func TestBuildDatasetTooShort(t *testing.T) {
	g, _ := feed.NewGenerator(feed.DefaultGeneratorConfig())
	ticks := g.Generate(50)
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
