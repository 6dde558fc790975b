package core

import (
	"testing"

	"lighttrader/internal/feed"
	"lighttrader/internal/latency"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/trading"
)

// TestPipelineLatencyHook checks SetLatency records one sample per decoded
// packet and that detaching stops recording.
func TestPipelineLatencyHook(t *testing.T) {
	cfg := feed.DefaultGeneratorConfig()
	gen, err := feed.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ticks := gen.Generate(20)
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
	if hist.Count() != uint64(len(ticks)) {
		t.Fatalf("recorded %d samples, want %d", hist.Count(), len(ticks))
	}
	if s := hist.Summarize(); s.P99 < s.P50 || s.Max < s.P999 {
		t.Fatalf("inconsistent summary: %+v", s)
	}
	p.SetLatency(nil)
	if _, err := p.OnPacket(gen.Generate(1)[0].Packet); err != nil {
		t.Fatal(err)
	}
	if hist.Count() != uint64(len(ticks)) {
		t.Fatal("detached histogram still recording")
	}
}
