package core

import (
	"testing"

	"lighttrader/internal/latency"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/testutil"
	"lighttrader/internal/trading"
)

// TestPipelineLatencyHook checks SetLatency records one sample per decoded
// packet and that detaching stops recording.
func TestPipelineLatencyHook(t *testing.T) {
	cfg := testutil.CMEBook
	all := testutil.CMETicks(t, 21)
	ticks := all[:20]
	p, err := NewPipeline(cfg.Symbol, cfg.SecurityID, nn.NewSizedCNN("tiny", 8, 0),
		offload.Calibrate(snapsOf(ticks)), trading.DefaultConfig(cfg.SecurityID))
	if err != nil {
		t.Fatal(err)
	}
	var hist latency.Histogram
	p.SetLatency(&hist)
	for _, tk := range ticks {
		if _, err := p.OnPacket(tk.Packet); err != nil {
			t.Fatal(err)
		}
	}
	if s := hist.Summarize(); s.Count != uint64(len(ticks)) {
		t.Fatalf("recorded %d samples, want %d", s.Count, len(ticks))
	} else if s.P99 < s.P50 || s.Max < s.P999 {
		t.Fatalf("inconsistent summary: %+v", s)
	}
	p.SetLatency(nil)
	if _, err := p.OnPacket(all[20].Packet); err != nil {
		t.Fatal(err)
	}
	if hist.Summarize().Count != uint64(len(ticks)) {
		t.Fatal("detached histogram still recording")
	}
}
