package core

import (
	"encoding/binary"
	"testing"

	"lighttrader/internal/exchange"
	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
	"lighttrader/internal/mdclient"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/sbe"
	"lighttrader/internal/tensor"
	"lighttrader/internal/trading"
)

// benchTicks generates one deterministic single-instrument tick trace and a
// normaliser calibrated from it. The trace is produced once per process and
// shared; benchmarks only overwrite the packet sequence-number bytes.
var benchTicks []feed.Tick
var benchNorm offload.Normalizer

func tickTrace(b *testing.B) []feed.Tick {
	b.Helper()
	if benchTicks == nil {
		g, err := feed.NewGenerator(feed.DefaultGeneratorConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchTicks = g.Generate(4096)
		snaps := make([]lob.Snapshot, len(benchTicks))
		for i := range benchTicks {
			snaps[i] = benchTicks[i].Snapshot
		}
		benchNorm = offload.Calibrate(snaps)
	}
	return benchTicks
}

// tickPath is the arbitrated single-instrument tick path the benchmarks time:
// datagram → mdclient.Arbiter → Pipeline.OnDecodedPacket. An in-order trace
// delivers exactly one packet per datagram, so reqs holds that tick's orders.
type tickPath struct {
	arb  *mdclient.Arbiter
	reqs []exchange.Request
	err  error
}

func newTickPath(p *Pipeline) *tickPath {
	tp := &tickPath{}
	tp.arb = mdclient.New(func(pkt sbe.Packet) { tp.reqs, tp.err = p.OnDecodedPacket(pkt) }, 0)
	return tp
}

// benchPipeline assembles the conventional pipeline with the accelerator
// answer stubbed to a constant aggressive signal, so the measured path is
// exactly the software tick-to-trade stages: decode → arbitration → book
// update → snapshot → feature extraction → trading decision → order out.
func benchPipeline(b *testing.B, stubPredict bool) (*Pipeline, *tickPath) {
	b.Helper()
	tcfg := trading.DefaultConfig(1)
	tcfg.MinConfidence = 0.2
	tcfg.DecisionLogCap = 512
	p, err := NewPipeline("ESU6", 1, nn.NewSizedCNN("tickbench", 4, 0), benchNorm, tcfg)
	if err != nil {
		b.Fatal(err)
	}
	if stubPredict {
		p.SetPredictor(func(*tensor.Tensor) (nn.Direction, float32, error) {
			return nn.Up, 0.9, nil
		})
	}
	return p, newTickPath(p)
}

// runTick replays one trace tick through the arbitrated path with a fresh
// sequence number, acknowledging every generated order with a cancel so the
// trading engine's exposure returns to zero and the order flow never stops.
func runTick(b *testing.B, p *Pipeline, tp *tickPath, ticks []feed.Tick, i int, seq *uint32) {
	buf := ticks[i%len(ticks)].Packet
	*seq++
	binary.LittleEndian.PutUint32(buf[0:], *seq)
	tp.reqs = nil
	if err := tp.arb.OnDatagram(buf); err != nil {
		b.Fatal(err)
	}
	if tp.err != nil {
		b.Fatal(tp.err)
	}
	for _, req := range tp.reqs {
		p.OnExecReport(exchange.ExecReport{
			Exec: exchange.ExecCanceled, ClOrdID: req.ClOrdID,
			SecurityID: req.SecurityID, Side: req.Side,
			Price: req.Price, Qty: req.Qty,
		})
	}
}

// BenchmarkTickToTrade measures the end-to-end software tick path: datagram
// bytes in → arbitrated decode → book update → snapshot → feature map →
// trading decision → order request out. The DNN answer is stubbed (the
// accelerator is modelled off this path; see BenchmarkTickToTradeInfer for
// the software-inference variant).
func BenchmarkTickToTrade(b *testing.B) {
	ticks := tickTrace(b)
	p, tp := benchPipeline(b, true)
	var seq uint32
	// Warm through one full trace cycle: fills the feature window and lets
	// every reusable buffer reach steady-state capacity.
	for i := 0; i < len(ticks); i++ {
		runTick(b, p, tp, ticks, i, &seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTick(b, p, tp, ticks, i, &seq)
	}
}

// BenchmarkTickToTradeInfer is the same path with the real (small sized-CNN)
// software forward pass inline, for scale: it shows how the conventional
// pipeline compares with software inference on the same core.
func BenchmarkTickToTradeInfer(b *testing.B) {
	ticks := tickTrace(b)
	p, tp := benchPipeline(b, false)
	var seq uint32
	for i := 0; i < 256; i++ {
		runTick(b, p, tp, ticks, i, &seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTick(b, p, tp, ticks, i, &seq)
	}
}

// BenchmarkStageBookUpdate isolates the local book-mirror stage: applying
// decoded incremental refreshes to the fixed-depth level arrays.
func BenchmarkStageBookUpdate(b *testing.B) {
	ticks := tickTrace(b)
	var msgs []*sbe.IncrementalRefresh
	for i := range ticks {
		pkt, err := sbe.DecodePacket(ticks[i].Packet)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range pkt.Messages {
			if m.Incremental != nil {
				msgs = append(msgs, m.Incremental)
			}
		}
	}
	p, _ := benchPipeline(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.applyIncremental(msgs[i%len(msgs)])
	}
}

// BenchmarkStageSnapshotFeature isolates snapshot capture plus feature-map
// assembly and the trading decision (the stages downstream of the book),
// with the accelerator answer stubbed.
func BenchmarkStageSnapshotFeature(b *testing.B) {
	ticks := tickTrace(b)
	p, tp := benchPipeline(b, true)
	var seq uint32
	for i := 0; i < len(ticks); i++ {
		runTick(b, p, tp, ticks, i, &seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var dst []exchange.Request
	for i := 0; i < b.N; i++ {
		reqs, err := p.onTick(int64(i), dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		dst = reqs
		for _, req := range reqs {
			p.OnExecReport(exchange.ExecReport{
				Exec: exchange.ExecCanceled, ClOrdID: req.ClOrdID,
				SecurityID: req.SecurityID, Side: req.Side,
				Price: req.Price, Qty: req.Qty,
			})
		}
	}
}
