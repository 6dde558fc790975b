//go:build !race

// The archive check runs in the plain build only: under the race detector
// the matrix takes seconds, and its worker fan-out already runs there in
// internal/bench's TestScenarioMatrixSmoke.

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunScenarioMatrixArchive regenerates the scenario-matrix archive the
// way `make bench-scenario` does and holds it to the committed file; `make
// bench-pin` does the same for the sched-matrix and power-sweep archives.
func TestRunScenarioMatrixArchive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_scenario.json")
	var out bytes.Buffer
	if err := run([]string{"-exp", "scenario-matrix", "-json", path, "-parallel", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scenario-matrix archive differs from BENCH_scenario.json (regenerate with make bench-scenario if the change is deliberate)")
	}
}
