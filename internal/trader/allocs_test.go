package trader

import (
	"context"
	"encoding/binary"
	"errors"
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
	"lighttrader/internal/scenario"
	"lighttrader/internal/serve"
	"lighttrader/internal/session"
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
// is established on conn, and the trace that feeds it. With a nil conn the
// session is left to Client.Run and cfg's venue. The runtime is started and
// stopped with the test.
func liveLoop(tb testing.TB, cfg Config, scfg serve.Config, conn net.Conn) (*MultiTrader, []feed.Tick) {
	tb.Helper()
	// One ESU6 book at E-mini intensity (feed.DefaultCMEParams).
	src, err := scenario.New("cme", scenario.Script{
		Instruments: []scenario.Instrument{{SecurityID: 1, Symbol: "ESU6", MidPrice: 450000, DepthPerLevel: 50}},
		Phases: []scenario.Phase{{Name: "cme", DurationSecs: 1.5,
			Arrivals: scenario.ArrivalSpec{Hawkes: []feed.HawkesParams{feed.DefaultCMEParams()}}}},
	}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ticks := src.Ticks()[:1024]
	p, err := core.NewPipeline("ESU6", 1, nil, offload.Normalizer{}, trading.Config{
		SecurityID: 1, OrderQty: 1, MaxPosition: 1 << 40, DecisionLogCap: 512})
	if err != nil {
		tb.Fatal(err)
	}
	p.SetPredictor(func(*tensor.Tensor) (nn.Direction, float32, error) { return nn.Up, 0.9, nil })
	mp := core.NewMultiPipeline()
	if err := mp.Attach(p); err != nil {
		tb.Fatal(err)
	}
	mt, err := NewMulti(cfg, mp, 0, scfg)
	if err != nil {
		tb.Fatal(err)
	}
	if conn != nil {
		mt.client.onEstablished(conn, orderentry.NewClientSession(1))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = mt.Run(ctx) }()
	tb.Cleanup(func() { cancel(); <-done })
	return mt, ticks
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
			mt, ticks := liveLoop(t, Config{}, serve.Config{Lanes: row.lanes,
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

// socketLoopAllocsPerTick is what one tick allocates across the whole
// process when the live loop runs from socket to socket, measured, not a
// target: TestLiveLoopAllocsPerTick's path plus the three places that touch
// a socket — ServeFeed's datagram read, the session loop's stream read and
// its ack decode — and a venue that allocates nothing itself. A tick is a
// burst of datagrams written back to back: one, or enough that ServeFeed
// reads them in batches. Lower a row when a change earns it; a rise fails CI
// (make bench-tickpath).
var socketLoopAllocsPerTick = []struct {
	lanes, burst int
	pin          float64
}{
	{lanes: 0, burst: 1, pin: 0},
	{lanes: 1, burst: 1, pin: 0},
	{lanes: 0, burst: 16, pin: 0},
	{lanes: 1, burst: 16, pin: 0},
}

// fillVenue is the far end of a socket-to-socket run: it accepts one order
// session on ln, answers the FIXP handshake, and fills every order in full
// with one ack, written once per read. It reads through a session.Reader
// and decodes into its own storage, so it allocates nothing per order.
func fillVenue(ln net.Listener) {
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	vs := orderentry.NewVenueSession()
	var rb session.Reader
	var req exchange.Request
	var ack orderentry.ExecAck
	var out []byte
	for {
		buf, _, rerr := rb.Read(conn)
		out = out[:0]
		for {
			now := time.Now().UnixNano()
			sf, used, serr := orderentry.DecodeSessionFrame(buf)
			if serr == nil {
				buf = buf[used:]
				reply, _ := vs.OnFrame(sf, now)
				out = append(out, reply...)
				continue
			}
			frame, used, err := orderentry.DecodeFrameInto(buf, &req, &ack)
			if errors.Is(err, orderentry.ErrILinkShort) {
				break
			}
			if err != nil || frame.Request == nil || vs.OnBusiness(now) != nil {
				return
			}
			buf = buf[used:]
			out = orderentry.AppendExecAck(out, orderentry.ExecAck{ClOrdID: req.ClOrdID, Price: req.Price,
				Qty: req.Qty, SecurityID: req.SecurityID, Exec: exchange.ExecFilled})
		}
		rb.Keep(buf)
		if len(out) > 0 {
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}

// await returns once done reports true. It sleeps between looks: a sleeping
// goroutine lets the scheduler poll the network, which a yielding one would
// keep it from at the GOMAXPROCS 1 that AllocsPerRun measures at.
func await(tb testing.TB, what string, done func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSocketLoopAllocsPerTick pins the live loop from socket to socket: each
// tick is a burst of datagrams written to the loopback UDP socket ServeFeed
// reads, and ends when every order they caused has crossed a real TCP
// session run by Client.Run to fillVenue and its fill ack has come back
// through the ledger into the trading engine. Allocations are counted
// process-wide, so the feed, session, lane and venue goroutines are all in
// the count.
func TestSocketLoopAllocsPerTick(t *testing.T) {
	for _, row := range socketLoopAllocsPerTick {
		name := fmt.Sprintf("lanes=%d", row.lanes)
		if row.burst > 1 {
			name += fmt.Sprintf(",burst=%d", row.burst)
		}
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			venueDone := make(chan struct{})
			go func() { defer close(venueDone); fillVenue(ln) }()
			feedConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			sender, err := net.DialUDP("udp", nil, feedConn.LocalAddr().(*net.UDPAddr))
			if err != nil {
				t.Fatal(err)
			}
			// A keep-alive longer than the test: no heartbeat crosses the session.
			mt, ticks := liveLoop(t, Config{OrderAddr: ln.Addr().String(), KeepAliveMillis: 60_000},
				serve.Config{Lanes: row.lanes}, nil)
			ctx, cancel := context.WithCancel(context.Background())
			clientDone, feedDone := make(chan struct{}), make(chan struct{})
			go func() { defer close(clientDone); _ = mt.Client().Run(ctx) }()
			go func() { defer close(feedDone); _ = mt.ServeFeed(ctx, feedConn) }()
			t.Cleanup(func() {
				cancel()
				<-clientDone
				<-feedDone
				ln.Close()
				<-venueDone
				feedConn.Close()
				sender.Close()
			})
			readyCtx, readyCancel := context.WithTimeout(ctx, 10*time.Second)
			defer readyCancel()
			if err := mt.Client().WaitReady(readyCtx); err != nil {
				t.Fatal(err)
			}

			var seq uint32
			tick := func() {
				for i := 0; i < row.burst; i++ {
					seq++
					buf := ticks[int(seq-1)%len(ticks)].Packet
					binary.LittleEndian.PutUint32(buf[0:], seq)
					if _, err := sender.Write(buf); err != nil {
						t.Fatal(err)
					}
				}
				await(t, "the datagrams", func() bool { return mt.ArbiterStats().Delivered >= int(seq) })
				mt.Serve().Drain()
				await(t, "the fills", func() bool {
					st := mt.Client().Stats()
					return st.AcksReceived == st.OrdersSent
				})
			}
			// Warm through one trace cycle, as TestLiveLoopAllocsPerTick does.
			for i := 0; i < len(ticks); i += row.burst {
				tick()
			}
			const runs = 512
			before := mt.Client().Stats().OrdersSent
			got := testing.AllocsPerRun(runs, tick)
			orders := mt.Client().Stats().OrdersSent - before
			mt.client.mu.Lock()
			live := len(mt.client.orders)
			mt.client.mu.Unlock()
			t.Logf("%v allocs per tick, %.2f orders per tick", got, float64(orders)/(runs+1))
			// AllocsPerRun divides whole counts, so an allocation once per
			// ack reads as 1 per tick only if every tick trades.
			if orders <= runs || live != 0 {
				t.Fatalf("measured loop is not the order path: %d orders in %d ticks, %d left in the ledger", orders, runs+1, live)
			}
			if got != row.pin {
				t.Fatalf("live loop from socket to socket allocates %v per tick, pinned at %v", got, row.pin)
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
			mt, ticks := liveLoop(b, Config{}, serve.Config{Lanes: 1, Inline: true, ModelledClock: true,
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
