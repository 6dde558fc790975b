package trader

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/feed"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/serve"
	"lighttrader/internal/tensor"
	"lighttrader/internal/trading"
)

// discardConn is an order session's far end that takes every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return io.Discard.Write(b) }

// liveLoopAllocsPerTick is what one datagram through the live loop allocates
// today, measured, not a target: arbiter decode → serve admission → (on a
// worker lane: copy into lane-owned storage, hand-off, wake-up) → book,
// features, stubbed prediction, trading decision → gate → ledger → order
// encode and write, and the fill ack back through the ledger into the
// trading engine. Lower a row when a change earns it; a rise is allocation
// creep on the tick path and fails CI (make bench-tickpath).
var liveLoopAllocsPerTick = []struct {
	lanes int
	pin   float64
}{
	{lanes: 0, pin: 0},
	{lanes: 1, pin: 0},
}

// liveLoop is a MultiTrader over one stub-predicted instrument whose session
// is established on conn, and the trace that feeds it. The runtime is started
// and stopped with the test.
func liveLoop(tb testing.TB, scfg serve.Config, conn net.Conn) (*MultiTrader, []feed.Tick) {
	tb.Helper()
	gcfg := feed.DefaultGeneratorConfig()
	gen, err := feed.NewGenerator(gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := core.NewPipeline(gcfg.Symbol, gcfg.SecurityID, nil, offload.Normalizer{}, trading.Config{
		SecurityID: gcfg.SecurityID, OrderQty: 1, MaxPosition: 1 << 40, DecisionLogCap: 512})
	if err != nil {
		tb.Fatal(err)
	}
	p.SetPredictor(func(*tensor.Tensor) (nn.Direction, float32, error) { return nn.Up, 0.9, nil })
	mp := core.NewMultiPipeline()
	if err := mp.Attach(p); err != nil {
		tb.Fatal(err)
	}
	mt, err := NewMulti(Config{}, mp, 0, scfg)
	if err != nil {
		tb.Fatal(err)
	}
	mt.client.onEstablished(conn, orderentry.NewClientSession(1))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = mt.Run(ctx) }()
	tb.Cleanup(func() { cancel(); <-done })
	return mt, gen.Generate(1024)
}

// liveTicker returns the measured step: the next n datagrams of the trace in,
// the runtime quiesced, and the venue's answer — every order filled in full —
// back through the ledger into the trading engine. It reports the orders sent.
func liveTicker(tb testing.TB, mt *MultiTrader, ticks []feed.Tick, sent *[]exchange.Request) func(n int) int {
	var seq uint32
	return func(n int) int {
		*sent = (*sent)[:0]
		for i := 0; i < n; i++ {
			buf := ticks[int(seq)%len(ticks)].Packet
			seq++
			binary.LittleEndian.PutUint32(buf[0:], seq)
			if err := mt.OnDatagram(buf); err != nil {
				tb.Fatal(err)
			}
		}
		mt.Serve().Drain()
		for _, req := range *sent {
			mt.client.handleAck(orderentry.ExecAck{ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
				Exec: exchange.ExecFilled, Price: req.Price, Qty: req.Qty})
		}
		return len(*sent)
	}
}

func TestLiveLoopAllocsPerTick(t *testing.T) {
	for _, row := range liveLoopAllocsPerTick {
		t.Run(fmt.Sprintf("lanes=%d", row.lanes), func(t *testing.T) {
			var sent []exchange.Request // appended by the dispatching goroutine, read after Drain
			mt, ticks := liveLoop(t, serve.Config{Lanes: row.lanes,
				OnOrders: func(_ int32, reqs []exchange.Request) { sent = append(sent, reqs...) }}, discardConn{})
			tick := liveTicker(t, mt, ticks, &sent)
			// Warm through one trace cycle: fills the feature window and lets
			// every reusable buffer reach steady-state capacity.
			for i := 0; i < len(ticks); i++ {
				tick(1)
			}
			orders := 0
			got := testing.AllocsPerRun(512, func() { orders += tick(1) })
			if orders == 0 || len(mt.client.orders) != 0 {
				t.Fatalf("measured loop is not the order path: %d orders, %d left in the ledger", orders, len(mt.client.orders))
			}
			if got != row.pin {
				t.Fatalf("live loop allocates %v per tick, pinned at %v", got, row.pin)
			}
		})
	}
}

// BenchmarkLaneDispatch is a lane's side of the tick at a fixed dispatch
// size, per order so the rows compare: copy into lane storage, take, book,
// features, stub prediction, decision, gate, ledger, encode, write, recycle,
// and the fills back. One logical lane on the modelled clock with ten minutes of
// front-pipeline time holds every decision until Drain flushes it, so each
// round's batch datagrams leave as exactly one dispatch, on this goroutine.
func BenchmarkLaneDispatch(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var sent []exchange.Request
			conn := &tornConn{okWrites: 1 << 62} // takes and counts every write
			mt, ticks := liveLoop(b, serve.Config{Lanes: 1, Inline: true, ModelledClock: true,
				PrePipelineNanos: int64(10 * time.Minute),
				OnOrders:         func(_ int32, reqs []exchange.Request) { sent = append(sent, reqs...) }}, conn)
			round := liveTicker(b, mt, ticks, &sent)
			for i := 0; i < len(ticks); i += batch {
				round(batch)
			}
			before := mt.Serve().Stats()
			conn.writes = 0
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			orders := 0
			for i := 0; i < b.N; i++ {
				orders += round(batch)
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			st := mt.Serve().Stats()
			if orders != b.N*batch || st.Batches-before.Batches != b.N {
				b.Fatalf("%d orders in %d dispatches over %d rounds of %d", orders, st.Batches-before.Batches, b.N, batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(orders), "ns/order")
			b.ReportMetric(float64(conn.writes)/float64(orders), "writes/order")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(orders), "allocs/order")
		})
	}
}
