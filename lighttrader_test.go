package lighttrader

import (
	"bytes"
	"testing"
	"time"
)

// scenarioTicks returns the first n ticks of a registry scenario at seed 1.
func scenarioTicks(t testing.TB, name string, n int) []Tick {
	t.Helper()
	src, err := ScenarioByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	ticks := src.Ticks()
	if len(ticks) < n {
		t.Fatalf("%s has %d ticks, want %d", name, len(ticks), n)
	}
	return ticks[:n]
}

// smallTrace is the trading day's opening burst and the calm after it, on
// one ESU6 book (security id 1).
func smallTrace(t testing.TB) []Tick {
	t.Helper()
	return scenarioTicks(t, "trading-day", 3000)
}

func TestPublicBacktestLightTrader(t *testing.T) {
	trace := smallTrace(t)
	sys, err := New(NewVanillaCNN(), WithAccelerators(2), WithPowerBudget(Sufficient),
		WithWorkloadScheduling(), WithDVFSScheduling())
	if err != nil {
		t.Fatal(err)
	}
	m := Backtest(trace, 20*time.Millisecond, sys)
	if m.Total != len(trace) || m.Unaccounted != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.ResponseRate <= 0.5 {
		t.Fatalf("response rate = %v", m.ResponseRate)
	}
}

func TestPublicBaselinesOrdering(t *testing.T) {
	trace := smallTrace(t)
	model := NewVanillaCNN()
	lt, err := New(model, WithAccelerators(1), WithPowerBudget(Sufficient))
	if err != nil {
		t.Fatal(err)
	}
	ltR := Backtest(trace, 20*time.Millisecond, lt).ResponseRate
	gpuR := Backtest(trace, 20*time.Millisecond, NewGPUBaseline(model)).ResponseRate
	fpgaR := Backtest(trace, 20*time.Millisecond, NewFPGABaseline(model)).ResponseRate
	if !(ltR > fpgaR && fpgaR > gpuR) {
		t.Fatalf("ordering: LT %.3f FPGA %.3f GPU %.3f", ltR, fpgaR, gpuR)
	}
}

func TestPublicTraceRoundTrip(t *testing.T) {
	trace := smallTrace(t)[:100]
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "ESU6", trace); err != nil {
		t.Fatal(err)
	}
	sym, got, err := ReadTrace(&buf)
	if err != nil || sym != "ESU6" || len(got) != 100 {
		t.Fatalf("round trip: %v %q %d", err, sym, len(got))
	}
}

func TestPublicPipeline(t *testing.T) {
	trace := smallTrace(t)[:120]
	norm := CalibrateNormalizer(trace)
	tc := DefaultTradingConfig(1)
	tc.MinConfidence = 0
	p, err := NewPipeline("ESU6", 1, NewVanillaCNN(), norm, tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range trace {
		if _, err := p.OnPacket(tk.Packet); err != nil {
			t.Fatal(err)
		}
	}
	if p.Inferences() == 0 {
		t.Fatal("pipeline ran no inferences")
	}
}

func TestPublicModelPredict(t *testing.T) {
	m := NewDeepLOB()
	if m.TotalFLOPs() <= 0 || m.Params() <= 0 {
		t.Fatal("model accounting empty")
	}
}
