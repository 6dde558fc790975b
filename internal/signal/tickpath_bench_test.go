package signal

import (
	"encoding/binary"
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
	"lighttrader/internal/mdclient"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/sbe"
	"lighttrader/internal/tensor"
	"lighttrader/internal/testutil"
	"lighttrader/internal/trading"
)

// benchTickSetup mirrors core's BenchmarkTickToTrade assembly (stubbed
// predictor, calibrated normaliser) so the two numbers are directly
// comparable: the only delta here is the attached gateway publisher.
func benchTickSetup(b *testing.B) (*core.Pipeline, *tickPath, []feed.Tick) {
	b.Helper()
	ticks := testutil.CMETicks(b, 4096) // core's tick trace
	tcfg := trading.DefaultConfig(1)
	tcfg.MinConfidence = 0.2
	tcfg.DecisionLogCap = 512
	p, err := core.NewPipeline("ESU6", 1, nn.NewSizedCNN("tickbench", 4, 0),
		calibrate(ticks), tcfg)
	if err != nil {
		b.Fatal(err)
	}
	p.SetPredictor(func(*tensor.Tensor) (nn.Direction, float32, error) {
		return nn.Up, 0.9, nil
	})
	tp := &tickPath{}
	tp.arb = mdclient.New(func(pkt sbe.Packet) { tp.reqs, tp.err = p.OnDecodedPacket(pkt) }, 0)
	return p, tp, ticks
}

// tickPath is core's bench harness of the same name: datagram → arbiter →
// Pipeline.OnDecodedPacket, one delivered packet (and its orders) per tick.
type tickPath struct {
	arb  *mdclient.Arbiter
	reqs []exchange.Request
	err  error
}

func calibrate(ticks []feed.Tick) offload.Normalizer {
	snaps := make([]lob.Snapshot, len(ticks))
	for i := range ticks {
		snaps[i] = ticks[i].Snapshot
	}
	return offload.Calibrate(snaps)
}

// runBenchTick replays one tick, cancelling any generated order so
// exposure returns to zero (identical to core's runTick).
func runBenchTick(b *testing.B, p *core.Pipeline, tp *tickPath, ticks []feed.Tick, i int, seq *uint32) {
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

// BenchmarkTickToTradeWithGateway is core's BenchmarkTickToTrade with a
// live gateway publisher installed and zero subscribers: the acceptance
// gate that the lane-side publish hook costs a few nanoseconds and no
// allocations on the hot path when nobody is watching.
func BenchmarkTickToTradeWithGateway(b *testing.B) {
	p, tp, ticks := benchTickSetup(b)
	g, err := NewGateway(Config{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	pub, err := g.Register("ESU6", 1)
	if err != nil {
		b.Fatal(err)
	}
	p.SetSignalHook(pub.Publish)

	var seq uint32
	for i := 0; i < len(ticks); i++ {
		runBenchTick(b, p, tp, ticks, i, &seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBenchTick(b, p, tp, ticks, i, &seq)
	}
}

// BenchmarkPublishIdle measures the hook's fast path: a symbol no
// subscriber has ever watched.
func BenchmarkPublishIdle(b *testing.B) {
	g, err := NewGateway(Config{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	pub, err := g.Register("ESU6", 1)
	if err != nil {
		b.Fatal(err)
	}
	e := core.SignalEvent{Action: nn.Up, Confidence: 0.9, BidPrice: 100, AskPrice: 101}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Publish(e)
	}
}

// BenchmarkPublishActive measures the hook with one (stalled) subscriber:
// the copy into the conflation slot plus the shard wake.
func BenchmarkPublishActive(b *testing.B) {
	g, err := NewGateway(Config{Shards: 8, clock: func() int64 { return 1 }})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	pub, err := g.Register("ESU6", 1)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := g.Subscribe("ESU6")
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	e := core.SignalEvent{Action: nn.Up, Confidence: 0.9, BidPrice: 100, AskPrice: 101}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Publish(e)
	}
	b.StopTimer()
	g.Drain() // quiesce pending wakes before Close
}
