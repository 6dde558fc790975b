package feed

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"lighttrader/internal/sbe"
)

// MeanRate returns the stationary event rate Mu/(1−Alpha/Beta) in events/s,
// or +Inf for a supercritical process.
func (p HawkesParams) MeanRate() float64 {
	br := p.BranchingRatio()
	if br >= 1 {
		return math.Inf(1)
	}
	return p.Mu / (1 - br)
}

// Intensity reports λ(t) for t ≥ the last event time, in events/s.
func (h *Hawkes) Intensity(t float64) float64 {
	if t < h.last {
		t = h.last
	}
	return h.p.Mu + h.excess*math.Exp(-h.p.Beta*(t-h.last))
}

func TestHawkesStrictlyIncreasing(t *testing.T) {
	h := NewHawkes(DefaultCMEParams(), 42)
	prev := int64(-1)
	for i := 0; i < 10000; i++ {
		n := h.NextNanos()
		if n <= prev {
			t.Fatalf("event %d: time %d <= previous %d", i, n, prev)
		}
		prev = n
	}
}

func TestHawkesMeanRate(t *testing.T) {
	p := DefaultCMEParams()
	h := NewHawkes(p, 7)
	const n = 200000
	var last float64
	for i := 0; i < n; i++ {
		last = h.Next()
	}
	got := float64(n) / last
	want := p.MeanRate()
	if got < want*0.7 || got > want*1.3 {
		t.Fatalf("empirical rate %.0f/s; stationary rate %.0f/s", got, want)
	}
}

func TestHawkesBurstiness(t *testing.T) {
	// A Hawkes process with branching ratio 0.8 must be far burstier than
	// Poisson: CV² of inter-arrivals well above 1.
	g, err := NewGenerator(DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	ticks := g.Generate(20000)
	s := ComputeStats(ticks)
	if s.CV2 < 2 {
		t.Fatalf("CV² = %.2f; want ≫ 1 (bursty)", s.CV2)
	}
	if s.MinGapNanos <= 0 {
		t.Fatalf("min gap %d; want > 0", s.MinGapNanos)
	}
	if s.MaxGapNanos < 100*s.P50GapNanos {
		t.Fatalf("max gap %d vs p50 %d: insufficient dynamic range", s.MaxGapNanos, s.P50GapNanos)
	}
}

func TestHawkesInvalidParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params accepted")
		}
	}()
	NewHawkes(HawkesParams{Mu: 0, Alpha: 1, Beta: 1}, 1)
}

func TestHawkesIntensityDecays(t *testing.T) {
	h := NewHawkes(HawkesParams{Mu: 10, Alpha: 100, Beta: 50}, 3)
	tEvt := h.Next()
	i0 := h.Intensity(tEvt)
	i1 := h.Intensity(tEvt + 0.1)
	if i0 <= 10 || i1 >= i0 {
		t.Fatalf("intensity not decaying: %f -> %f", i0, i1)
	}
	if got := h.Intensity(tEvt - 1); got != i0 {
		t.Fatalf("intensity before last event = %f, want clamped %f", got, i0)
	}
}

func TestSupercriticalMeanRate(t *testing.T) {
	p := HawkesParams{Mu: 1, Alpha: 2, Beta: 1}
	if !math.IsInf(p.MeanRate(), 1) {
		t.Fatal("supercritical process must report infinite mean rate")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	g1, _ := NewGenerator(cfg)
	g2, _ := NewGenerator(cfg)
	t1 := g1.Generate(500)
	t2 := g2.Generate(500)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("same seed must produce identical traces")
	}
	cfg.Seed = 2
	g3, _ := NewGenerator(cfg)
	t3 := g3.Generate(500)
	if reflect.DeepEqual(t1, t3) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGeneratorTicksWellFormed(t *testing.T) {
	g, err := NewGenerator(DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	ticks := g.Generate(2000)
	if len(ticks) != 2000 {
		t.Fatalf("got %d ticks", len(ticks))
	}
	prev := int64(0)
	for i, tk := range ticks {
		if tk.TimeNanos < prev {
			t.Fatalf("tick %d time went backwards", i)
		}
		prev = tk.TimeNanos
		if _, err := sbe.DecodePacket(tk.Packet); err != nil {
			t.Fatalf("tick %d packet: %v", i, err)
		}
		if tk.Snapshot.Bids[0].Price == 0 || tk.Snapshot.Asks[0].Price == 0 {
			t.Fatalf("tick %d: empty top of book %+v", i, tk.Snapshot)
		}
		if tk.Snapshot.Bids[0].Price >= tk.Snapshot.Asks[0].Price {
			t.Fatalf("tick %d: crossed snapshot", i)
		}
	}
}

func TestGeneratorPriceMoves(t *testing.T) {
	g, _ := NewGenerator(DefaultGeneratorConfig())
	ticks := g.Generate(5000)
	first := ticks[0].Snapshot.MidPrice()
	var moved bool
	for _, tk := range ticks {
		if tk.Snapshot.MidPrice() != first {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("mid price never moved over 5000 ticks")
	}
}

func TestGeneratorBadConfig(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.MidPrice = 5
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	g, _ := NewGenerator(DefaultGeneratorConfig())
	ticks := g.Generate(300)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "ESU6", ticks); err != nil {
		t.Fatal(err)
	}
	sym, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sym != "ESU6" {
		t.Fatalf("symbol = %q", sym)
	}
	if len(got) != len(ticks) {
		t.Fatalf("got %d ticks, want %d", len(got), len(ticks))
	}
	for i := range got {
		if got[i].TimeNanos != ticks[i].TimeNanos {
			t.Fatalf("tick %d time mismatch", i)
		}
		if !bytes.Equal(got[i].Packet, ticks[i].Packet) {
			t.Fatalf("tick %d packet mismatch", i)
		}
		if got[i].Snapshot.Bids != ticks[i].Snapshot.Bids || got[i].Snapshot.Asks != ticks[i].Snapshot.Asks {
			t.Fatalf("tick %d snapshot mismatch", i)
		}
	}
}

func TestTraceErrors(t *testing.T) {
	if _, _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, _, err := ReadTrace(bytes.NewReader([]byte("XXXX00000000"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated record.
	g, _ := NewGenerator(DefaultGeneratorConfig())
	ticks := g.Generate(5)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "ES", ticks); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, _, err := ReadTrace(bytes.NewReader(raw[:len(raw)-10])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestComputeStatsSmall(t *testing.T) {
	if s := ComputeStats(nil); s.Count != 0 {
		t.Fatal("empty stats")
	}
	if s := ComputeStats([]Tick{{TimeNanos: 5}}); s.Count != 1 || s.MeanRate != 0 {
		t.Fatalf("single tick stats = %+v", s)
	}
}

func BenchmarkHawkesNext(b *testing.B) {
	h := NewHawkes(DefaultCMEParams(), 1)
	for i := 0; i < b.N; i++ {
		_ = h.Next()
	}
}

func BenchmarkGenerate(b *testing.B) {
	g, err := NewGenerator(DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Generate(1)
	}
}
