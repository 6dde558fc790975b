package bench

import (
	"sync"
	"testing"

	"lighttrader/internal/baseline"
	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/sim"
)

// tinyTraffic is a fast config distinct from shortTraffic so cache state
// from other tests doesn't mask generation races.
func tinyTraffic(ticks int) TrafficConfig {
	tc := DefaultTraffic()
	tc.Ticks = ticks
	return tc
}

func TestQueriesConcurrentAccess(t *testing.T) {
	// Exercises the query cache from many goroutines; run under -race this
	// guards the lock added for the parallel experiment runner. Workers hit
	// both an uncached config (generation race) and repeated lookups.
	tc := tinyTraffic(701) // unlikely to be cached by another test
	var wg sync.WaitGroup
	results := make([][]sim.Query, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				results[i] = tc.Queries()
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("worker %d saw %d queries, worker 0 saw %d", i, len(results[i]), len(results[0]))
		}
	}
	// All callers must observe the same canonical slice.
	for i := 1; i < len(results); i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatal("workers observed different cached slices")
		}
	}
}

func TestRunMatrixPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 3, 16, 200} {
		out := RunMatrix(items, workers, func(x int) int { return x * x })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunAllParallelMatchesSerial(t *testing.T) {
	// The tentpole invariant: fanning experiments across workers changes
	// only wall time, never output.
	tc := tinyTraffic(2000)
	subset := func() []Experiment {
		var sel []Experiment
		for _, e := range Experiments(tc) {
			switch e.Name {
			case "tableI", "tableIII", "fig8", "fig9", "fig11", "fig12":
				sel = append(sel, e)
			}
		}
		return sel
	}
	serial := RunAll(subset(), 1)
	parallel := RunAll(subset(), 4)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Name != parallel[i].Name {
			t.Fatalf("order differs at %d: %s vs %s", i, serial[i].Name, parallel[i].Name)
		}
		if serial[i].Output != parallel[i].Output {
			t.Fatalf("%s: parallel output differs from serial", serial[i].Name)
		}
	}
}

// systemsUnderTest builds fresh per-call models — never shared across
// workers, matching the harness contract.
func systemsUnderTest(t *testing.T) []sim.SystemModel {
	t.Helper()
	cfg, err := core.Configure(nn.NewDeepLOB(), 2, core.Limited,
		core.Options{WorkloadScheduling: true, DVFSScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	lt, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []sim.SystemModel{lt, baseline.NewGPU(nn.NewDeepLOB()), baseline.NewFPGA(nn.NewDeepLOB())}
}

func TestDeterminismAcrossSystemsAndHarness(t *testing.T) {
	// Same TrafficConfig seed run twice must produce byte-identical Metrics
	// for LightTrader, GPU and FPGA — serially and under the parallel
	// harness (Metrics is a comparable struct, so == is a bytewise check).
	tc := tinyTraffic(3000)
	queries := tc.Queries()
	first := make([]sim.Metrics, 3)
	for i, sys := range systemsUnderTest(t) {
		first[i] = sim.Run(queries, sys)
	}
	second := make([]sim.Metrics, 3)
	for i, sys := range systemsUnderTest(t) {
		second[i] = sim.Run(queries, sys)
	}
	viaHarness := RunMatrix(systemsUnderTest(t), 3, func(sys sim.SystemModel) sim.Metrics {
		return sim.Run(tc.Queries(), sys)
	})
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("%s: rerun diverged:\n%+v\n%+v", first[i].System, first[i], second[i])
		}
		if first[i] != viaHarness[i] {
			t.Fatalf("%s: parallel-harness run diverged:\n%+v\n%+v", first[i].System, first[i], viaHarness[i])
		}
	}
}

func TestTraceRunAttributionSumsToMisses(t *testing.T) {
	// Acceptance criterion: on a bursty trace every miss is classified as
	// exactly one of {evicted, deferred-infeasible, late} and the class
	// counts sum to Metrics.Dropped + Metrics.Late. A tight 500 µs horizon
	// (< 2·tick-to-trade for DeepLOB) guarantees bursts overrun the
	// two-accelerator system even on the -short trace.
	tc := shortTraffic(t)
	tc.TAvailNanos = 500_000
	m, tr := TraceRunWith(tc, nil)
	if m.Dropped+m.Late == 0 {
		t.Fatal("bursty trace produced no misses; attribution unexercised")
	}
	a := tr.Attribution()
	if a.DeferredOther != 0 {
		t.Fatalf("%d unclassified defers", a.DeferredOther)
	}
	if a.Evicted+a.DeferredDeadline+a.DeferredPower != m.Dropped {
		t.Fatalf("drop attribution %+v != %d dropped", a, m.Dropped)
	}
	if a.Late != m.Late {
		t.Fatalf("late %d != %d", a.Late, m.Late)
	}
	if a.Total() != m.Dropped+m.Late {
		t.Fatalf("attribution total %d != %d misses", a.Total(), m.Dropped+m.Late)
	}
	if tr.Arrived() != m.Total || tr.Completed() != m.Total-m.Dropped {
		t.Fatalf("lifecycle counts inconsistent: arrived %d/%d, completed %d/%d",
			tr.Arrived(), m.Total, tr.Completed(), m.Total-m.Dropped)
	}
}
