package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smoke runs one workload at a size that takes a fraction of a second per
// phase. Nothing here asserts a time.
func smoke(t *testing.T, name string, seed int64, dir string) *result {
	t.Helper()
	res, err := runWorkload(name, runOpts{seed: seed, seconds: 0.4, trace: true, outDir: dir, rounds: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, p := range res.problems {
		t.Errorf("%s: check failed: %s", name, p)
	}
	if res.attempted < 1 || res.failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", name, res.attempted, res.failed)
	}
	return res
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json and the metric tables
// together: the driver refuses a run whose metric names differ from the file.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json is out of date: regenerate it with `perf -spec`")
	}
	seen := map[string]bool{}
	for _, lists := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range lists {
			if seen[m.name] {
				t.Errorf("metric name %q is used twice", m.name)
			}
			seen[m.name] = true
		}
	}
}

// TestWorkloadsSmoke runs every workload traced and checks what a driver run
// prints: every named metric present and finite, the driver line complete,
// and (wire workloads) the span file consistent.
func TestWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		res := smoke(t, w.name, 7, dir)
		for _, trace := range []bool{false, true} {
			line := driverLine(res, trace)
			if len(line.Metrics) != len(shown(trace)) {
				t.Errorf("%s: driver line has %d metrics, want %d", w.name, len(line.Metrics), len(shown(trace)))
			}
			for _, m := range shown(trace) {
				v, ok := res.metrics[m.name]
				// Every end-to-end metric is defined on every workload; a
				// per-layer metric may be one the workload does not exercise.
				if !ok && !trace {
					t.Errorf("%s: %s was not measured", w.name, m.name)
				}
				if !finite(v) || (!trace && v <= 0) {
					t.Errorf("%s: %s = %v", w.name, m.name, v)
				}
			}
		}
		if _, wire := wireSpecs[w.name]; wire {
			checkSpanFile(t, filepath.Join(dir, "trace-"+w.name+".jsonl"))
		}
	}
}

// checkSpanFile asserts that the stage spans of every traced tick are
// contiguous and sum to the tick's wire-to-order time.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type span struct {
		Trace      int
		Span       string
		Start, End int64
		Parent     string
	}
	roots := map[int]span{}
	sums := map[int]int64{}
	stages := map[int]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Parent == "" {
			roots[s.Trace] = s
			continue
		}
		sums[s.Trace] += s.End - s.Start
		stages[s.Trace]++
	}
	if len(roots) == 0 {
		t.Fatalf("%s holds no traced tick", path)
	}
	for id, root := range roots {
		if stages[id] != len(stageNames) {
			t.Errorf("%s: tick %d has %d stage spans", path, id, stages[id])
		}
		if sums[id] != root.End-root.Start || root.End <= root.Start {
			t.Errorf("%s: tick %d stages sum to %d ns of a %d ns tick", path, id, sums[id], root.End-root.Start)
		}
	}
}

// TestModelledRepeats checks that the same seed gives the same modelled
// numbers from two separate set-ups, and another seed gives other inputs.
func TestModelledRepeats(t *testing.T) {
	pass := func(seed int64) modelled {
		rs, err := newReplaySetup(seed)
		if err != nil {
			t.Fatal(err)
		}
		res := newResult("replay-modelled")
		var m modelled
		var submitNs []int64
		rs.simPass(&m, res)
		rs.servePass(&m, &submitNs, res)
		for _, p := range res.problems {
			t.Errorf("seed %d: check failed: %s", seed, p)
		}
		return m
	}
	a, b := pass(11), pass(11)
	if !a.equal(b) {
		t.Errorf("same seed, different modelled numbers:\n%+v\n%+v", a, b)
	}
	other, err := newReplaySetup(12)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range other.sim {
		total += len(c.queries)
	}
	if total == a.total {
		t.Error("another seed generated the same number of queries")
	}
}

// TestCompareVerdicts pins the three verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	def := metricDef{name: "latency_us", kind: "host", better: "lower", bound: 0.10}
	for _, tc := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{10, 10.2, 9.9}, []float64{10.5, 10.4, 10.6}, "ok"},
		{[]float64{10, 10.2, 9.9}, []float64{12, 12.1, 11.9}, "regressed"},
		{[]float64{8, 10, 13}, []float64{12, 11.5, 12.5}, "unresolved"},
		{[]float64{8, 10, 13}, []float64{14, 15, 16}, "regressed"},
	} {
		if got := judge(def, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%v, %v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
	exact, _ := findMetric("modelled_response_share")
	if got := judge(exact, []float64{0.9}, []float64{0.9000001}); got != "regressed" {
		t.Errorf("a modelled difference judged %s", got)
	}
}

// TestCalmHalves pins the summary over rounds: the mean of the better half,
// the middle round included.
func TestCalmHalves(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		low, high float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{4, 2}, 2, 4},
		{[]float64{9, 1, 5, 3, 7}, 3, 7},
		{[]float64{1, 2, 3, 100}, 1.5, 51.5},
	} {
		if got := calmLow(tc.xs); got != tc.low {
			t.Errorf("calmLow(%v) = %v, want %v", tc.xs, got, tc.low)
		}
		if got := calmHigh(tc.xs); got != tc.high {
			t.Errorf("calmHigh(%v) = %v, want %v", tc.xs, got, tc.high)
		}
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
