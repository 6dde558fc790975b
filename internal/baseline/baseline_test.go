package baseline

import (
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/sim"
	"lighttrader/internal/testutil"
)

func TestProfileOrdering(t *testing.T) {
	for _, m := range nn.BenchmarkModels() {
		gpu := GPUProfile(m)
		fpga := FPGAProfile(m)
		if gpu.ServiceNanos <= 0 || fpga.ServiceNanos <= 0 {
			t.Fatalf("%s: non-positive service", m.Name())
		}
		// §II-D: the FPGA-based system is faster than the GPU-based system
		// for these small single-query networks.
		if fpga.ServiceNanos >= gpu.ServiceNanos {
			t.Fatalf("%s: FPGA %d ns not below GPU %d ns", m.Name(), fpga.ServiceNanos, gpu.ServiceNanos)
		}
	}
}

func TestSpeedupRatiosMatchPaper(t *testing.T) {
	// Fig. 11a: LightTrader is 13.92× faster than the GPU-based system and
	// 7.28× faster than the FPGA-based system on average across the three
	// models. Check the average ratios within ±20%.
	var gpuSum, fpgaSum float64
	models := nn.BenchmarkModels()
	for _, m := range models {
		cfg, err := core.Configure(m, 1, core.Sufficient, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lt := float64(cfg.TickToTradeNanos())
		gpuSum += float64(GPUProfile(m).ServiceNanos) / lt
		fpgaSum += float64(FPGAProfile(m).ServiceNanos) / lt
	}
	gpuAvg := gpuSum / float64(len(models))
	fpgaAvg := fpgaSum / float64(len(models))
	if gpuAvg < 13.92*0.8 || gpuAvg > 13.92*1.2 {
		t.Fatalf("GPU speedup ratio = %.2f, want ≈13.92 ±20%%", gpuAvg)
	}
	if fpgaAvg < 7.28*0.8 || fpgaAvg > 7.28*1.2 {
		t.Fatalf("FPGA speedup ratio = %.2f, want ≈7.28 ±20%%", fpgaAvg)
	}
}

func TestBaselineSystemRuns(t *testing.T) {
	queries := sim.QueriesFromTicks(testutil.CMETicks(t, 2000), 5_000_000)
	for _, sys := range []*System{NewGPU(nn.NewVanillaCNN()), NewFPGA(nn.NewVanillaCNN())} {
		m := sim.Run(queries, sys)
		if m.Unaccounted != 0 {
			t.Fatalf("%s: unaccounted %d", sys.Name(), m.Unaccounted)
		}
		if m.Responded == 0 {
			t.Fatalf("%s: no responses", sys.Name())
		}
		if m.EnergyJoules <= 0 {
			t.Fatalf("%s: energy %v", sys.Name(), m.EnergyJoules)
		}
	}
}

func TestBaselineWorseResponseThanLightTrader(t *testing.T) {
	// Fig. 11b: LightTrader responds to more queries than both baselines
	// under the same bursty traffic.
	queries := sim.QueriesFromTicks(testutil.CMETicks(t, 4000), 5_000_000)
	model := nn.NewDeepLOB()
	cfg, err := core.Configure(model, 1, core.Sufficient, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lt, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ltR := sim.Run(queries, lt).ResponseRate
	gpuR := sim.Run(queries, NewGPU(model)).ResponseRate
	fpgaR := sim.Run(queries, NewFPGA(model)).ResponseRate
	if !(ltR > fpgaR && fpgaR > gpuR) {
		t.Fatalf("response ordering wrong: LT %.3f, FPGA %.3f, GPU %.3f", ltR, fpgaR, gpuR)
	}
}

func TestBaselineDeadlineDrop(t *testing.T) {
	sys := NewGPU(nn.NewVanillaCNN())
	// Deadline shorter than service: the system must defer, not serve late.
	queries := []sim.Query{{ID: 0, ArrivalNanos: 0, DeadlineNanos: 1000}}
	m := sim.Run(queries, sys)
	if m.Dropped != 1 || m.Responded != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestBaselineProbeAttribution(t *testing.T) {
	// Flood the GPU baseline so both miss causes occur: queue-overflow
	// evictions and deadline-infeasible defers. Every miss must be
	// classified and the classes must sum to Dropped + Late.
	sys := NewGPU(nn.NewVanillaCNN())
	svc := sys.Profile().ServiceNanos
	queries := make([]sim.Query, 300)
	for i := range queries {
		queries[i] = sim.Query{ID: int64(i), ArrivalNanos: int64(i), DeadlineNanos: int64(i) + 3*svc}
	}
	tr := sim.NewTracer()
	m := sim.RunWithOptions(queries, sys, sim.WithProbe(tr))
	if m.Dropped == 0 {
		t.Fatal("flood produced no drops")
	}
	a := tr.Attribution()
	if a.Evicted == 0 || a.DeferredDeadline == 0 {
		t.Fatalf("expected both evictions and deadline defers, got %+v", a)
	}
	if a.Evicted+a.DeferredDeadline != m.Dropped || a.Total() != m.Dropped+m.Late {
		t.Fatalf("attribution %+v does not account for %d dropped + %d late", a, m.Dropped, m.Late)
	}
	// Observe-only invariant for the baseline model too.
	bare := sim.Run(queries, NewGPU(nn.NewVanillaCNN()))
	if bare != m {
		t.Fatalf("instrumented run diverged:\nbare   %+v\ntraced %+v", bare, m)
	}
}

func TestBaselineFIFOOrder(t *testing.T) {
	sys := NewFPGA(nn.NewVanillaCNN())
	svc := sys.Profile().ServiceNanos
	queries := []sim.Query{
		{ID: 0, ArrivalNanos: 0, DeadlineNanos: 10 * svc},
		{ID: 1, ArrivalNanos: 1, DeadlineNanos: 10 * svc},
	}
	m := sim.Run(queries, sys)
	if m.Responded != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	// Second query waits for the first: max latency ≈ 2·service.
	if m.MaxLatencyNanos < 2*svc-10 || m.MaxLatencyNanos > 2*svc+10 {
		t.Fatalf("max latency %d, want ≈%d", m.MaxLatencyNanos, 2*svc)
	}
}
