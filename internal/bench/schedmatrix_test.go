package bench

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lighttrader/internal/scenario"
)

// schedTestTraffic is a small but non-trivial trace: enough ticks that every
// policy issues, defers and batches, small enough for CI.
func schedTestTraffic() (*scenario.Source, int64) {
	return DefaultTraffic(8, 1), 20_000_000
}

// TestSchedMatrixParallelIdentical is the policy-matrix smoke: the full
// policy × workload matrix (every registered strategy, via RunMatrix) over a
// small trace must be byte-identical for any worker count — cells share
// only read-only state.
func TestSchedMatrixParallelIdentical(t *testing.T) {
	src, tAvail := schedTestTraffic()
	serial := SchedMatrixWorkers(src, tAvail, 1)
	parallel := SchedMatrixWorkers(src, tAvail, 4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("matrix diverged across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if got := RenderSchedMatrix(serial); got != RenderSchedMatrix(parallel) {
		t.Fatal("rendered matrix diverged across worker counts")
	}
}

// TestSchedMatrixShape: one row per (workload, policy) pair, fully
// accounted rates, and the archived JSON carries the generating parameters.
func TestSchedMatrixShape(t *testing.T) {
	src, tAvail := schedTestTraffic()
	rows := SchedMatrixWorkers(src, tAvail, 1)
	wantPolicies := []string{"ppw", "fcfs", "greedy"}
	wantWorkloads := []string{"calm", "bursty", "flash"}
	if len(rows) != len(wantPolicies)*len(wantWorkloads) {
		t.Fatalf("got %d rows, want %d", len(rows), len(wantPolicies)*len(wantWorkloads))
	}
	i := 0
	for _, w := range wantWorkloads {
		for _, p := range wantPolicies {
			r := rows[i]
			i++
			if r.Workload != w || r.Policy != p {
				t.Fatalf("row %d = (%s, %s), want (%s, %s)", i-1, r.Workload, r.Policy, w, p)
			}
			if r.ResponseRate < 0 || r.ResponseRate > 1 || r.MissRate < 0 || r.MissRate > 1 {
				t.Fatalf("row %d rates out of range: %+v", i-1, r)
			}
			if diff := r.ResponseRate + r.MissRate - 1; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("row %d rates do not sum to 1: %+v", i-1, r)
			}
			if r.EnergyJ <= 0 || r.PPW <= 0 {
				t.Fatalf("row %d has no energy accounting: %+v", i-1, r)
			}
		}
	}
	// FCFS never batches; the PPW policy batches under this traffic.
	byKey := map[string]SchedRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Policy] = r
	}
	if mb := byKey["bursty/fcfs"].MeanBatch; mb != 1 {
		t.Fatalf("fcfs mean batch = %v, want exactly 1", mb)
	}
	if mb := byKey["bursty/ppw"].MeanBatch; mb <= 1 {
		t.Fatalf("ppw mean batch = %v, want > 1 under bursty traffic", mb)
	}
	// Every registry row earns its place: each pair of policies differs in
	// at least one stat on at least one workload.
	for i, a := range wantPolicies {
		for _, b := range wantPolicies[i+1:] {
			if sameStats(byKey, wantWorkloads, a, b) {
				t.Errorf("%s and %s give identical stats on every workload", a, b)
			}
		}
	}

	data, err := SchedMatrixJSON(src, tAvail, rows)
	if err != nil {
		t.Fatal(err)
	}
	var rep SchedReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Ticks != len(src.Ticks()) || rep.TAvailNanos != tAvail || rep.Seed != src.Seed() ||
		len(rep.Rows) != len(rows) {
		t.Fatalf("archived report lost parameters: %+v", rep)
	}
	if !strings.Contains(string(data), "responses_per_joule") {
		t.Fatal("JSON missing the PPW column")
	}
}

// sameStats reports whether policies a and b have equal stats on every
// workload.
func sameStats(byKey map[string]SchedRow, workloads []string, a, b string) bool {
	for _, w := range workloads {
		ra, rb := byKey[w+"/"+a], byKey[w+"/"+b]
		ra.Policy, rb.Policy = "", ""
		if ra != rb {
			return false
		}
	}
	return true
}
