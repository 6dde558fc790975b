package sched

import (
	"strings"
	"testing"

	"lighttrader/internal/cgra"
)

// TestValidateAcceptsWellFormed: the canonical test config passes for every
// feature combination.
func TestValidateAcceptsWellFormed(t *testing.T) {
	for _, ws := range []bool{false, true} {
		for _, ds := range []bool{false, true} {
			if err := testConfig(t, ws, ds).Validate(); err != nil {
				t.Fatalf("ws=%v ds=%v: %v", ws, ds, err)
			}
		}
	}
}

// TestValidateRejections: each construction-time invariant rejects with a
// message naming the violation.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *Config)
		want   string
	}{
		{"nil kernel", func(c *Config) { c.Kernel = nil }, "no compiled kernel"},
		{"zero power budget", func(c *Config) { c.PowerBudgetWatts = 0 }, "power budget"},
		{"negative power budget", func(c *Config) { c.PowerBudgetWatts = -5 }, "power budget"},
		{"empty dvfs table", func(c *Config) {
			// The table derives from the frequency envelope; inverting the
			// envelope leaves no operating point.
			c.Spec.MinFreqGHz = c.Spec.MaxFreqGHz + 1
		}, "empty DVFS"},
		{"zero static point", func(c *Config) {
			c.DVFSScheduling = false
			c.StaticDVFS = cgra.DVFSState{}
		}, "static DVFS"},
		{"negative post-process", func(c *Config) { c.PostProcessNanos = -1 }, "post-process"},
	}
	for _, c := range cases {
		cfg := *testConfig(t, true, true)
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: validated", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestValidateStaticPointIgnoredUnderDS: a zero static point is legal when
// DVFS scheduling explores the table instead.
func TestValidateStaticPointIgnoredUnderDS(t *testing.T) {
	cfg := *testConfig(t, true, true)
	cfg.StaticDVFS = cgra.DVFSState{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("static point checked despite DS: %v", err)
	}
}
