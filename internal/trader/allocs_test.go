package trader

import (
	"encoding/binary"
	"io"
	"net"
	"testing"

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

// liveLoopAllocsPerTick is what one datagram through the inline live loop
// allocates today, measured, not a target: arbiter decode → serve admission →
// book, features, stubbed prediction, trading decision → gate → ledger →
// order encode and write, and the fill ack back through the ledger into the
// trading engine. Lower it when a change earns it; a rise is allocation creep
// on the tick path and fails CI (make bench-tickpath).
const liveLoopAllocsPerTick = 3

func TestLiveLoopAllocsPerTick(t *testing.T) {
	gcfg := feed.DefaultGeneratorConfig()
	gen, err := feed.NewGenerator(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	ticks := gen.Generate(1024)
	p, err := core.NewPipeline(gcfg.Symbol, gcfg.SecurityID, nil, offload.Normalizer{}, trading.Config{
		SecurityID: gcfg.SecurityID, OrderQty: 1, MaxPosition: 1 << 40, DecisionLogCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	p.SetPredictor(func(*tensor.Tensor) (nn.Direction, float32, error) { return nn.Up, 0.9, nil })
	mp := core.NewMultiPipeline()
	if err := mp.Attach(p); err != nil {
		t.Fatal(err)
	}
	var sent []exchange.Request
	mt, err := NewMulti(Config{}, mp, 0, serve.Config{Lanes: 0,
		OnOrders: func(_ int32, reqs []exchange.Request) { sent = append(sent, reqs...) }})
	if err != nil {
		t.Fatal(err)
	}
	mt.client.onEstablished(discardConn{}, orderentry.NewClientSession(1))

	var seq uint32
	orders := 0
	tick := func() {
		buf := ticks[int(seq)%len(ticks)].Packet
		seq++
		binary.LittleEndian.PutUint32(buf[0:], seq)
		sent = sent[:0]
		if err := mt.OnDatagram(buf); err != nil {
			t.Fatal(err)
		}
		for _, req := range sent { // the venue's answer: filled in full
			mt.client.handleAck(orderentry.ExecAck{ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
				Exec: exchange.ExecFilled, Price: req.Price, Qty: req.Qty})
		}
		orders += len(sent)
	}
	// Warm through one trace cycle: fills the feature window and lets every
	// reusable buffer reach steady-state capacity.
	for i := 0; i < len(ticks); i++ {
		tick()
	}
	orders = 0
	got := testing.AllocsPerRun(512, tick)
	if orders == 0 || len(mt.client.orders) != 0 {
		t.Fatalf("measured loop is not the order path: %d orders, %d left in the ledger", orders, len(mt.client.orders))
	}
	if got != liveLoopAllocsPerTick {
		t.Fatalf("live loop allocates %v per tick, pinned at %d", got, liveLoopAllocsPerTick)
	}
}
