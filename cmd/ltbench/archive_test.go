//go:build !race

// The archive check runs in the plain build only: under the race detector
// the matrices take seconds each, and their worker fan-out already runs
// there in internal/bench's smoke tests.

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunScenarioMatrixArchive regenerates every modelled archive `make
// bench-pin` checks — sched-matrix, power-sweep and scenario-matrix — the
// way its `make bench-<name>` target does, and holds each to the committed
// file byte for byte. frontier is left out: it trains the model zoo for
// minutes (`make bench-frontier`).
func TestRunScenarioMatrixArchive(t *testing.T) {
	for _, a := range []struct{ exp, file string }{
		{"sched-matrix", "BENCH_sched.json"},
		{"power-sweep", "BENCH_power.json"},
		{"scenario-matrix", "BENCH_scenario.json"},
	} {
		t.Run(a.exp, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), a.file)
			var out bytes.Buffer
			if err := run([]string{"-exp", a.exp, "-json", path, "-parallel", "0"}, &out); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", a.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s archive differs from %s (regenerate it with its make bench-* target if the change is deliberate)", a.exp, a.file)
			}
		})
	}
}
