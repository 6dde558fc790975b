package bench

import (
	"reflect"
	"sync"
	"testing"

	"lighttrader/internal/baseline"
	"lighttrader/internal/core"
	"lighttrader/internal/feed"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sim"
)

// tinyTraffic is a fast slice of the paper workload at the 20 ms horizon.
func tinyTraffic(seconds float64) (*scenario.Source, int64) {
	return DefaultTraffic(seconds, 1), 20_000_000
}

func TestQueriesConcurrentAccess(t *testing.T) {
	// The parallel experiment runner hands one Source to many goroutines;
	// run under -race this guards its memoisation. Every worker races the
	// first generation, then projects queries from the shared ticks.
	src, tAvail := tinyTraffic(1.3)
	var wg sync.WaitGroup
	ticks := make([][]feed.Tick, 8)
	results := make([][]sim.Query, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				ticks[i] = src.Ticks()
				results[i] = src.Queries(tAvail)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("worker %d saw different queries from worker 0", i)
		}
	}
	// All callers must observe the same canonical tick slice.
	for i := 1; i < len(ticks); i++ {
		if &ticks[i][0] != &ticks[0][0] {
			t.Fatal("workers observed different memoised tick slices")
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
	src, tAvail := tinyTraffic(3.8)
	subset := func() []Experiment {
		var sel []Experiment
		for _, e := range Experiments(src, tAvail) {
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
	// The same source run twice must produce byte-identical Metrics for
	// LightTrader, GPU and FPGA — serially and under the parallel harness
	// (Metrics is a comparable struct, so == is a bytewise check).
	src, tAvail := tinyTraffic(5.7)
	queries := src.Queries(tAvail)
	first := make([]sim.Metrics, 3)
	for i, sys := range systemsUnderTest(t) {
		first[i] = sim.Run(queries, sys)
	}
	second := make([]sim.Metrics, 3)
	for i, sys := range systemsUnderTest(t) {
		second[i] = sim.Run(queries, sys)
	}
	viaHarness := RunMatrix(systemsUnderTest(t), 3, func(sys sim.SystemModel) sim.Metrics {
		return sim.Run(src.Queries(tAvail), sys)
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
	src, _ := shortTraffic(t)
	m, tr := TraceRunWith(src, 500_000, nil)
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
