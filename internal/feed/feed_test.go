package feed

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"lighttrader/internal/lob"
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

// syntheticTicks builds n ticks at Hawkes arrival times, each with its own
// packet bytes and book: the trace format round-trips bytes, it does not
// parse them.
func syntheticTicks(n int) []Tick {
	h := NewHawkes(DefaultCMEParams(), 2)
	ticks := make([]Tick, n)
	for i := range ticks {
		tk := &ticks[i]
		tk.TimeNanos = h.NextNanos()
		tk.Packet = []byte(fmt.Sprintf("packet %d", i))
		tk.Snapshot.Seq = uint64(i + 1)
		tk.Snapshot.LastTrade = int64(450000 + i%7)
		for l := range tk.Snapshot.Bids {
			tk.Snapshot.Bids[l] = lob.Level{Price: int64(449999 - l), Qty: int64(i + l + 1), Orders: l + 1}
			tk.Snapshot.Asks[l] = lob.Level{Price: int64(450001 + l), Qty: int64(2*i + l + 1), Orders: l + 2}
		}
	}
	return ticks
}

func TestHawkesBurstiness(t *testing.T) {
	// A Hawkes process with branching ratio 0.8 must be far burstier than
	// Poisson: CV² of inter-arrivals well above 1.
	s := ComputeStats(syntheticTicks(20000))
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

// arrivalMix builds the routine-plus-flash arrival mixture the scenario
// engine times its ticks by.
func arrivalMix(seed int64) *Mixture {
	return NewProcessMixture([]ArrivalProcess{
		NewHawkes(DefaultCMEParams(), seed),
		NewFlash(FlashParams{MeanIntervalSecs: 0.05, DurationSecs: 0.005, RateHz: 75000}, seed+1),
	})
}

func TestGeneratorDeterminism(t *testing.T) {
	const n = 2000
	draw := func(seed int64) []int64 {
		m := arrivalMix(seed)
		out := make([]int64, n)
		for i := range out {
			out[i] = m.NextNanos()
		}
		return out
	}
	t1, t2 := draw(1), draw(1)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("same seed diverged at event %d: %d vs %d", i, t1[i], t2[i])
		}
		if i > 0 && t1[i] <= t1[i-1] {
			t.Fatalf("event %d not after event %d: %d <= %d", i, i-1, t1[i], t1[i-1])
		}
	}
	t3 := draw(2)
	same := true
	for i := range t1 {
		if t1[i] != t3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival times")
	}
}

func TestGeneratorBadConfig(t *testing.T) {
	for name, build := range map[string]func(){
		"hawkes zero baseline": func() { NewHawkes(HawkesParams{Mu: 0, Alpha: 1, Beta: 1}, 1) },
		"hawkes negative jump": func() { NewHawkes(HawkesParams{Mu: 1, Alpha: -1, Beta: 1}, 1) },
		"flash zero interval":  func() { NewFlash(FlashParams{DurationSecs: 1, RateHz: 1}, 1) },
		"flash zero duration":  func() { NewFlash(FlashParams{MeanIntervalSecs: 1, RateHz: 1}, 1) },
		"flash zero rate":      func() { NewFlash(FlashParams{MeanIntervalSecs: 1, DurationSecs: 1}, 1) },
		"empty mixture":        func() { NewProcessMixture(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad config accepted", name)
				}
			}()
			build()
		}()
	}
}

func TestSupercriticalMeanRate(t *testing.T) {
	p := HawkesParams{Mu: 1, Alpha: 2, Beta: 1}
	if !math.IsInf(p.MeanRate(), 1) {
		t.Fatal("supercritical process must report infinite mean rate")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	ticks := syntheticTicks(300)
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
		if got[i].Snapshot.Bids != ticks[i].Snapshot.Bids || got[i].Snapshot.Asks != ticks[i].Snapshot.Asks ||
			got[i].Snapshot.Seq != ticks[i].Snapshot.Seq || got[i].Snapshot.LastTrade != ticks[i].Snapshot.LastTrade {
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
	ticks := syntheticTicks(5)
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
