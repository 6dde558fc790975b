package cgra

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpecPeaks(t *testing.T) {
	s := DefaultSpec()
	// Paper Table I / §III-C: ≈16 TFLOPS BF16 and ≈64 TOPS INT8.
	tflops := s.PeakTFLOPS(s.MaxFreqGHz)
	if tflops < 14 || tflops > 18 {
		t.Fatalf("BF16 peak = %.1f TFLOPS, want ≈16", tflops)
	}
	tops := s.PeakTOPS(s.MaxFreqGHz)
	if tops < 56 || tops > 72 {
		t.Fatalf("INT8 peak = %.1f TOPS, want ≈64", tops)
	}
}

func TestVoltageCurve(t *testing.T) {
	s := DefaultSpec()
	if v := s.VoltageAt(0.8); v != s.MinVolt {
		t.Fatalf("V(0.8) = %v", v)
	}
	if v := s.VoltageAt(2.2); v != s.MaxVolt {
		t.Fatalf("V(2.2) = %v", v)
	}
	if v := s.VoltageAt(0.5); v != s.MinVolt {
		t.Fatalf("V below range = %v", v)
	}
	if v := s.VoltageAt(3.0); v != s.MaxVolt {
		t.Fatalf("V above range = %v", v)
	}
	mid := s.VoltageAt(1.5)
	if mid <= s.MinVolt || mid >= s.MaxVolt {
		t.Fatalf("V(1.5) = %v not interior", mid)
	}
}

func TestDVFSTable(t *testing.T) {
	s := DefaultSpec()
	table := s.DVFSTable()
	if len(table) != 15 {
		t.Fatalf("table size = %d, want 15 (0.8…2.2 step 0.1)", len(table))
	}
	for i := 1; i < len(table); i++ {
		if table[i].FreqGHz <= table[i-1].FreqGHz {
			t.Fatal("table not ascending")
		}
		if table[i].Volt < table[i-1].Volt {
			t.Fatal("voltage not monotone with frequency")
		}
	}
	if table[0].FreqGHz != 0.8 || table[len(table)-1].FreqGHz != 2.2 {
		t.Fatalf("endpoints %v … %v", table[0], table[len(table)-1])
	}
}

func TestPowerCalibration(t *testing.T) {
	s := DefaultSpec()
	top := DVFSState{FreqGHz: s.MaxFreqGHz, Volt: s.MaxVolt}
	if p := s.Power(top, 1); math.Abs(p-s.MaxPowerWatts) > 1e-6 {
		t.Fatalf("P(top, act=1) = %.3f W, want %.1f (Table I)", p, s.MaxPowerWatts)
	}
	bottom := DVFSState{FreqGHz: s.MinFreqGHz, Volt: s.MinVolt}
	if p := s.Power(bottom, 1); p <= 0 || p >= s.MaxPowerWatts/3 {
		t.Fatalf("P(bottom) = %.3f W implausible", p)
	}
	if s.IdlePower(top) >= s.Power(top, 1) {
		t.Fatal("idle power not below active power")
	}
}

func TestQuickPowerMonotone(t *testing.T) {
	s := DefaultSpec()
	f := func(fi, ai uint8) bool {
		table := s.DVFSTable()
		d := table[int(fi)%len(table)]
		a1 := float64(ai%100) / 100
		a2 := a1 + 0.005
		// Monotone in activity at fixed state.
		if s.Power(d, a2) < s.Power(d, a1) {
			return false
		}
		// Monotone in DVFS state at fixed activity.
		if int(fi)%len(table) > 0 {
			prev := table[int(fi)%len(table)-1]
			if s.Power(d, a1) <= s.Power(prev, a1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerActivityClamped(t *testing.T) {
	s := DefaultSpec()
	d := s.DVFSTable()[5]
	if s.Power(d, -1) != s.Power(d, 0) {
		t.Fatal("negative activity not clamped")
	}
	if s.Power(d, 2) != s.Power(d, 1) {
		t.Fatal("activity > 1 not clamped")
	}
}

func TestMaxFreqUnderPower(t *testing.T) {
	s := DefaultSpec()
	// Generous budget: top state.
	d, ok := s.MaxFreqUnderPower(100, 1)
	if !ok || d.FreqGHz != s.MaxFreqGHz {
		t.Fatalf("generous budget gave %v %v", d, ok)
	}
	// Tight budget: must pick a lower state that actually fits.
	d, ok = s.MaxFreqUnderPower(3.0, 1)
	if !ok || d.FreqGHz >= s.MaxFreqGHz {
		t.Fatalf("tight budget gave %v %v", d, ok)
	}
	if s.Power(d, 1) > 3.0 {
		t.Fatalf("selected state %v draws %.2f W > 3.0", d, s.Power(d, 1))
	}
	// Impossible budget.
	if _, ok := s.MaxFreqUnderPower(0.1, 1); ok {
		t.Fatal("impossible budget satisfied")
	}
	// Frequency must not decrease when the budget grows.
	prevF := 0.0
	for _, budget := range []float64{1.5, 2, 3, 5, 8, 12} {
		if d, ok := s.MaxFreqUnderPower(budget, 1); ok {
			if d.FreqGHz < prevF {
				t.Fatalf("frequency dropped as budget grew: %v at %v W", d, budget)
			}
			prevF = d.FreqGHz
		}
	}
}

func TestHyperblockCycles(t *testing.T) {
	h := Hyperblock{ComputeCycles: 100, MemCycles: 20, FMTCycles: 5, ParallelBatch: 4}
	if c := h.Cycles(1); c != 105 {
		t.Fatalf("batch 1 = %d, want 105", c)
	}
	// Batch 4 co-executes: compute unchanged, mem scales.
	if c := h.Cycles(4); c != 105 {
		t.Fatalf("batch 4 = %d, want 105 (batch-insensitive)", c)
	}
	// Batch 5 needs a second pass.
	if c := h.Cycles(5); c != 205 {
		t.Fatalf("batch 5 = %d, want 205", c)
	}
	// Batch 16: compute 4 passes (400) vs mem 320 → compute-bound.
	if c := h.Cycles(16); c != 405 {
		t.Fatalf("batch 16 = %d, want max(400,320)+5 = 405", c)
	}
	// A memory-heavy block goes memory-bound at large batch.
	hm := Hyperblock{ComputeCycles: 100, MemCycles: 80, ParallelBatch: 4}
	if c := hm.Cycles(16); c != 80*16 {
		t.Fatalf("mem-bound batch 16 = %d, want 1280", c)
	}
}

func TestHyperblockCyclesDefensive(t *testing.T) {
	h := Hyperblock{ComputeCycles: 10}
	if h.Cycles(0) != h.Cycles(1) {
		t.Fatal("batch 0 not clamped")
	}
	if h.Cycles(-3) != h.Cycles(1) {
		t.Fatal("negative batch not clamped")
	}
}

func TestKernelLatencyScalesWithFrequency(t *testing.T) {
	s := DefaultSpec()
	k := &Kernel{Blocks: []Hyperblock{{ComputeCycles: 10000, ParallelBatch: 1}}, TotalFLOPs: 1e6}
	lo := k.InferenceNanos(s, DVFSState{FreqGHz: 1.0, Volt: 0.8}, 1)
	hi := k.InferenceNanos(s, DVFSState{FreqGHz: 2.0, Volt: 1.1}, 1)
	if hi >= lo {
		t.Fatalf("latency did not improve with frequency: %d vs %d", hi, lo)
	}
	ratio := float64(lo) / float64(hi)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("2× frequency gave %.2fx speedup", ratio)
	}
}

func TestKernelUtilisationBounds(t *testing.T) {
	s := DefaultSpec()
	// A perfectly mapped block: peak FLOPs each cycle.
	k := &Kernel{
		Blocks:     []Hyperblock{{ComputeCycles: 1000, ParallelBatch: 1}},
		TotalFLOPs: 1000 * s.FLOPsPerCycle(),
	}
	// Achieved FLOPs per cycle over peak, at batch 1.
	u := float64(k.TotalFLOPs) / float64(k.CyclesForBatch(s, 1)) / float64(s.FLOPsPerCycle())
	if u <= 0 || u > 1 {
		t.Fatalf("utilisation = %v", u)
	}
}

func TestBlockKindString(t *testing.T) {
	for k, want := range map[BlockKind]string{
		KindMatmul: "matmul", KindRecurrent: "recurrent",
		KindElementwise: "elementwise", KindFormat: "format",
	} {
		if k.String() != want {
			t.Fatalf("%d = %q", k, k.String())
		}
	}
}
