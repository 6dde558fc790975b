package bench

import (
	"strings"
	"testing"

	"lighttrader/internal/scenario"
)

// paperSeconds is ltbench's default -seconds: the full-length paper
// workload, ≈ 40 000 ticks at seed 1.
const paperSeconds = 77

// shortTraffic keeps unit-test runtime manageable while preserving the
// traffic shape (≈ 12 000 ticks, 4 000 under -short, at the 20 ms horizon
// ltbench defaults to); the repo-level benchmarks use the full trace.
func shortTraffic(t *testing.T) (*scenario.Source, int64) {
	t.Helper()
	seconds := 26.0
	if testing.Short() {
		seconds = 8
	}
	return DefaultTraffic(seconds, 1), 20_000_000
}

func TestTableI(t *testing.T) {
	r := TableIData()
	if r.PeakTFLOPS < 14 || r.PeakTFLOPS > 18 || r.MaxPowerW != 10.8 {
		t.Fatalf("Table I = %+v", r)
	}
	if out := RenderTableI(); !strings.Contains(out, "2.2 GHz") {
		t.Fatalf("render: %s", out)
	}
}

func TestTableII(t *testing.T) {
	rows := TableIIData()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Model != "VanillaCNN" || rows[2].Model != "DeepLOB" {
		t.Fatalf("order = %v", rows)
	}
	if !(rows[0].FLOPs < rows[1].FLOPs && rows[1].FLOPs < rows[2].FLOPs) {
		t.Fatal("FLOP ordering broken")
	}
	_ = RenderTableII()
}

func TestTableIII(t *testing.T) {
	rows := TableIIIData()
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Frequency non-increasing with N within each condition and model.
	byCond := map[string][]TableIIIRow{}
	for _, r := range rows {
		byCond[r.Condition] = append(byCond[r.Condition], r)
	}
	for cond, rs := range byCond {
		for _, model := range []string{"VanillaCNN", "TransLOB", "DeepLOB"} {
			for i := 1; i < len(rs); i++ {
				if rs[i].FreqGHz[model] > rs[i-1].FreqGHz[model] {
					t.Fatalf("%s %s: freq rises at N=%d", cond, model, rs[i].NumAccels)
				}
			}
		}
		// N=16 under limited power must be well below max frequency.
		if cond == "limited" && rs[len(rs)-1].FreqGHz["DeepLOB"] > 1.6 {
			t.Fatalf("limited N=16 DeepLOB freq = %v, want heavily throttled", rs[len(rs)-1].FreqGHz)
		}
	}
	_ = RenderTableIII()
}

func TestFig8ResponseFallsWithComplexity(t *testing.T) {
	rows := Fig8(shortTraffic(t))
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].LatencyNanos <= rows[i-1].LatencyNanos {
			t.Fatalf("latency not increasing at %s", rows[i].Model)
		}
	}
	// The headline of Fig. 8: the most complex model responds to
	// meaningfully fewer queries than the simplest.
	if rows[4].ResponseRate >= rows[0].ResponseRate {
		t.Fatalf("M5 response %.3f not below M1 %.3f", rows[4].ResponseRate, rows[0].ResponseRate)
	}
	_ = RenderFig8(rows)
}

func TestFig9Ratio(t *testing.T) {
	r := Fig9()
	if r.Ratio < 2.1 || r.Ratio > 2.7 {
		t.Fatalf("C2C ratio = %.2f, want ≈2.4", r.Ratio)
	}
	if out := RenderFig9(r); !strings.Contains(out, "Interlaken") {
		t.Fatal("render missing comparison")
	}
}

func TestFig11Shape(t *testing.T) {
	rows := Fig11(shortTraffic(t))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var gpuSpeed, fpgaSpeed float64
	for _, r := range rows {
		if !(r.LTNanos < r.FPGANanos && r.FPGANanos < r.GPUNanos) {
			t.Fatalf("%s: latency ordering broken (%d/%d/%d)", r.Model, r.LTNanos, r.FPGANanos, r.GPUNanos)
		}
		if !(r.LTResp > r.GPUResp && r.LTResp > r.FPGAResp) {
			t.Fatalf("%s: LT response %.3f not best (GPU %.3f FPGA %.3f)", r.Model, r.LTResp, r.GPUResp, r.FPGAResp)
		}
		if !(r.LTEff > r.FPGAEff && r.FPGAEff > r.GPUEff) {
			t.Fatalf("%s: efficiency ordering broken", r.Model)
		}
		gpuSpeed += float64(r.GPUNanos) / float64(r.LTNanos)
		fpgaSpeed += float64(r.FPGANanos) / float64(r.LTNanos)
	}
	gpuSpeed /= 3
	fpgaSpeed /= 3
	if gpuSpeed < 11 || gpuSpeed > 17 {
		t.Fatalf("GPU speed-up %.2f, want ≈13.92", gpuSpeed)
	}
	if fpgaSpeed < 5.8 || fpgaSpeed > 8.8 {
		t.Fatalf("FPGA speed-up %.2f, want ≈7.28", fpgaSpeed)
	}
	_ = RenderFig11(rows)
}

func TestFig12Shape(t *testing.T) {
	rows := Fig12(shortTraffic(t))
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(model, cond string, n int) Fig12Row {
		for _, r := range rows {
			if r.Model == model && r.Condition == cond && r.NumAccels == n {
				return r
			}
		}
		t.Fatalf("missing row %s %s %d", model, cond, n)
		return Fig12Row{}
	}
	for _, model := range []string{"VanillaCNN", "TransLOB", "DeepLOB"} {
		// Response rises from 1 to 8 accelerators under sufficient power.
		if !(get(model, "sufficient", 8).ResponseRate > get(model, "sufficient", 1).ResponseRate) {
			t.Fatalf("%s: response did not improve 1→8", model)
		}
		// Sufficient power at N=8 must reach the high-nineties regime.
		if get(model, "sufficient", 8).ResponseRate < 0.90 {
			t.Fatalf("%s: N=8 sufficient response %.3f too low", model, get(model, "sufficient", 8).ResponseRate)
		}
		// Limited power is never better than sufficient at the same N.
		for _, n := range []int{1, 2, 4, 8, 16} {
			s := get(model, "sufficient", n).ResponseRate
			l := get(model, "limited", n).ResponseRate
			if l > s+0.005 {
				t.Fatalf("%s N=%d: limited %.3f above sufficient %.3f", model, n, l, s)
			}
		}
	}
	_ = RenderFig12(rows)
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full scheduler matrix is slow")
	}
	rows := Fig13(shortTraffic(t))
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
	summ := SummarizeFig13(rows)
	if len(summ) != 3 {
		t.Fatalf("summary = %+v", summ)
	}
	for _, s := range summ {
		// WS must help at small N (paper: 17.6–21.4% relative reduction).
		if s.WSSmallN <= 0 {
			t.Fatalf("%s: WS reduction %.3f not positive at small N", s.Model, s.WSSmallN)
		}
		// The combination must help overall.
		if s.BothAllN <= 0 {
			t.Fatalf("%s: WS+DS reduction %.3f not positive", s.Model, s.BothAllN)
		}
	}
	_ = RenderFig13(rows)
}
