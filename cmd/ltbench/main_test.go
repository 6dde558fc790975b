package main

import (
	"bytes"
	"strings"
	"testing"

	"lighttrader/internal/bench"
)

// TestRunTableI runs one experiment through the command: its output is the
// rendered table, then the timing lines.
func TestRunTableI(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "tableI"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), bench.RenderTableI()+"\n[tableI completed in ") {
		t.Fatalf("output does not open with Table I:\n%s", out.String())
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}, &bytes.Buffer{}); err == nil {
		t.Fatal("run accepted -exp fig99")
	}
}
