package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lighttrader"
)

// TestRunWritesScenarioTrace renders a scenario and reads the trace back:
// it must hold every tick the scenario generates.
func TestRunWritesScenarioTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quiet.lttr")
	var out bytes.Buffer
	if err := run([]string{"-out", path, "-scenario", "quiet", "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	symbol, trace, err := lighttrader.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	src, err := lighttrader.ScenarioByName("quiet", 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(src.Ticks()); len(trace) != want || symbol != "ESU6" {
		t.Fatalf("read back %d ticks of %q, want %d of ESU6; output:\n%s", len(trace), symbol, want, out.String())
	}
}
