package core

import (
	"fmt"
	"time"

	"lighttrader/internal/exchange"
	"lighttrader/internal/latency"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/sbe"
	"lighttrader/internal/tensor"
	"lighttrader/internal/trading"
)

// Pipeline is the functional tick-to-trade path (paper Fig. 2b / Fig. 4b):
// market-data packet → SBE parse → local book update → offload engine →
// DNN inference → trading engine → order request. It runs the real DNN
// forward pass in software — the accelerator latency model does not apply
// here; this path exists so the system is a working trading stack, used by
// the quickstart and live-wire examples and the integration tests.
type Pipeline struct {
	securityID int32
	model      *nn.Model
	offl       *offload.Engine
	trader     *trading.Engine

	// predict, when set, replaces the model forward pass — the hook the
	// tick-path benchmarks and the modelled-accelerator harnesses use to
	// measure the conventional pipeline without running inference inline.
	predict func(t *tensor.Tensor) (nn.Direction, float32, error)

	// sig, when set, receives every inference result (the signal-gateway
	// publish hook). Called inline on the tick path, so implementations
	// must be non-blocking and allocation-free.
	sig SignalHook

	// ladder holds the degrade ladder's functional models (tier t > 0 is
	// ladder[t-1]); tier selects which one answers the next forward pass.
	// Both are plain fields set by the serving lane under its dispatch lock,
	// so switching tiers costs one store and zero allocations.
	ladder []*nn.Model
	tier   int

	// Local market-by-price book mirror: the HFT-side LOB of §II-A,
	// reconstructed from incremental refresh messages.
	bids      [lob.DepthLevels]lob.Level
	asks      [lob.DepthLevels]lob.Level
	lastTrade int64
	seq       uint64
	symbol    string

	ticks      int
	inferences int

	// ordersBuf backs the slice OnDecodedPacket returns, reused across
	// packets so steady-state order generation does not allocate.
	ordersBuf []exchange.Request
	// pktBuf backs OnPacket's decode: the packet is consumed within the call.
	pktBuf sbe.PacketBuffer

	// lat, when set, records each OnDecodedPacket call's wall duration:
	// the book-update → feature → decision stages of the tick path.
	lat *latency.Histogram
}

// NewPipeline assembles the functional pipeline.
func NewPipeline(symbol string, securityID int32, model *nn.Model, norm offload.Normalizer, tcfg trading.Config) (*Pipeline, error) {
	trader, err := trading.NewEngine(tcfg)
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		securityID: securityID,
		symbol:     symbol,
		model:      model,
		offl:       offload.NewEngine(norm, 64),
		trader:     trader,
	}, nil
}

// Trader exposes the trading engine (position, decision log).
func (p *Pipeline) Trader() *trading.Engine { return p.trader }

// SecurityID returns the instrument this pipeline is subscribed to.
func (p *Pipeline) SecurityID() int32 { return p.securityID }

// Symbol returns the subscribed instrument's symbol.
func (p *Pipeline) Symbol() string { return p.symbol }

// Model returns the pipeline's inference model (used to compile latency
// tables when the serving runtime schedules this subscription).
func (p *Pipeline) Model() *nn.Model { return p.model }

// SetLatency attaches a histogram recording each OnDecodedPacket call's
// wall-clock duration (book update through trading decision). nil detaches.
func (p *Pipeline) SetLatency(hist *latency.Histogram) { p.lat = hist }

// SetModelLadder attaches the degrade ladder's functional models: tier
// t > 0 selects models[t-1] for the forward pass, tier 0 (and any nil
// entry) keeps the primary model. Every entry must share the primary
// model's input shape — the offload engine assembles one feature-map
// format; cheaper zoo variants crop inside the network (nn.WindowCrop).
// The active tier resets to the primary model.
func (p *Pipeline) SetModelLadder(models []*nn.Model) {
	p.ladder = models
	p.tier = 0
}

// SetActiveTier selects the model the next forward pass runs: 0 is the
// primary model, t > 0 the t-th ladder entry. Out-of-range tiers (and nil
// ladder entries) fall back to the primary model, so a tier-aware engine
// can set the admission tier unconditionally. Callers synchronise with
// dispatch (the serving lane holds its processing lock).
func (p *Pipeline) SetActiveTier(tier int) { p.tier = tier }

// activeModel resolves the tier selection to the model answering the next
// forward pass.
func (p *Pipeline) activeModel() *nn.Model {
	if p.tier > 0 && p.tier <= len(p.ladder) {
		if m := p.ladder[p.tier-1]; m != nil {
			return m
		}
	}
	return p.model
}

// SetPredictor replaces the model forward pass with fn (nil restores the
// model). The offload engine still assembles feature maps; fn receives each
// one in place of nn.Model.Predict — lent, stamped and valid only for the
// call (offload.Engine.Window) — this is how the tick-to-trade benchmarks
// model the accelerator answering off the hot path.
func (p *Pipeline) SetPredictor(fn func(t *tensor.Tensor) (nn.Direction, float32, error)) {
	p.predict = fn
}

// SignalEvent is one inference result as seen on the tick path: the
// prediction plus the top-of-book context it was made from. It is a flat
// value type (no pointers into pipeline state) so handing it to a hook
// cannot make anything escape to the heap — the tick path stays 0-alloc.
type SignalEvent struct {
	// Action is the predicted direction; Confidence its probability.
	Action     nn.Direction
	Confidence float32
	// Top-of-book at prediction time.
	BidPrice, BidQty int64
	AskPrice, AskQty int64
	LastTrade        int64
	// TickNanos is the book-event time the prediction was made from.
	TickNanos int64
}

// SignalHook receives every inference result, inline on the tick path.
// Implementations must never block and never allocate (the signal
// gateway's Publisher.Publish satisfies both).
type SignalHook func(SignalEvent)

// SetSignalHook installs fn as the pipeline's inference-result listener
// (nil detaches). The hook runs on the tick path after the trading
// decision; its cost is added to tick-to-trade latency, which is why the
// contract demands non-blocking, 0-alloc implementations.
func (p *Pipeline) SetSignalHook(fn SignalHook) { p.sig = fn }

// Ticks returns how many book-updating events have been processed.
func (p *Pipeline) Ticks() int { return p.ticks }

// Inferences returns how many DNN forward passes have run.
func (p *Pipeline) Inferences() int { return p.inferences }

// Snapshot returns the current local book state.
func (p *Pipeline) Snapshot(timeNanos int64) lob.Snapshot {
	return lob.Snapshot{
		Symbol: p.symbol, Seq: p.seq, TimeNanos: timeNanos,
		Bids: p.bids, Asks: p.asks, LastTrade: p.lastTrade,
	}
}

// OnPacket processes one market-data datagram end to end, returning any
// order requests the trading engine generated.
func (p *Pipeline) OnPacket(buf []byte) ([]exchange.Request, error) {
	pkt, err := sbe.DecodePacketInto(buf, &p.pktBuf)
	if err != nil {
		return nil, fmt.Errorf("core: packet parse: %w", err)
	}
	return p.OnDecodedPacket(pkt)
}

// OnDecodedPacket processes an already-decoded packet (the arbitrated-feed
// path, where mdclient has parsed and ordered the datagrams). The returned
// slice is backed by the pipeline's reusable buffer: it is valid until the
// next OnDecodedPacket/OnPacket call, and callers that keep orders longer
// must copy them out (every in-tree caller appends into its own storage).
func (p *Pipeline) OnDecodedPacket(pkt sbe.Packet) ([]exchange.Request, error) {
	if p.lat != nil {
		start := time.Now()
		defer func() { p.lat.Record(time.Since(start).Nanoseconds()) }()
	}
	orders := p.ordersBuf[:0]
	defer func() { p.ordersBuf = orders[:0] }()
	for _, msg := range pkt.Messages {
		switch {
		case msg.Incremental != nil:
			// Only updates for this pipeline's instrument generate a tick;
			// a shared channel carries other securities too.
			if p.applyIncremental(msg.Incremental) == 0 {
				continue
			}
			var err error
			orders, err = p.onTick(int64(msg.Incremental.TransactTime), orders)
			if err != nil {
				return orders, err
			}
		case msg.Trade != nil:
			if msg.Trade.SecurityID == p.securityID || msg.Trade.SecurityID == 0 {
				p.lastTrade = msg.Trade.Price
			}
		case msg.Snapshot != nil:
			if msg.Snapshot.SecurityID == p.securityID || msg.Snapshot.SecurityID == 0 {
				p.applySnapshot(msg.Snapshot)
			}
		}
	}
	return orders, nil
}

// applyIncremental folds level updates into the local book mirror,
// returning how many entries applied to this instrument.
func (p *Pipeline) applyIncremental(m *sbe.IncrementalRefresh) int {
	applied := 0
	for _, e := range m.Entries {
		if e.SecurityID != p.securityID && e.SecurityID != 0 {
			continue
		}
		lvl := int(e.Level) - 1
		if lvl < 0 || lvl >= lob.DepthLevels {
			continue
		}
		side := &p.bids
		if e.Entry == sbe.EntryAsk {
			side = &p.asks
		} else if e.Entry == sbe.EntryTrade {
			continue
		}
		switch e.Action {
		case sbe.ActionNew, sbe.ActionChange:
			side[lvl] = lob.Level{Price: e.Price, Qty: int64(e.Qty)}
		case sbe.ActionDelete:
			side[lvl] = lob.Level{}
		}
		p.seq++
		applied++
	}
	return applied
}

// applySnapshot replaces the local book from a full refresh.
func (p *Pipeline) applySnapshot(m *sbe.SnapshotFullRefresh) {
	p.bids = [lob.DepthLevels]lob.Level{}
	p.asks = [lob.DepthLevels]lob.Level{}
	for _, e := range m.Entries {
		lvl := int(e.Level) - 1
		if lvl < 0 || lvl >= lob.DepthLevels {
			continue
		}
		l := lob.Level{Price: e.Price, Qty: int64(e.Qty)}
		if e.Entry == sbe.EntryBid {
			p.bids[lvl] = l
		} else if e.Entry == sbe.EntryAsk {
			p.asks[lvl] = l
		}
	}
	p.seq++
}

// onTick pushes the post-update snapshot through offload → inference →
// trading, appending any generated orders to dst.
func (p *Pipeline) onTick(timeNanos int64, dst []exchange.Request) ([]exchange.Request, error) {
	p.ticks++
	snap := p.Snapshot(timeNanos)
	p.offl.Push(snap)
	x := p.offl.Window() // lent until the next Push; nil until the window fills
	if x == nil {
		return dst, nil
	}
	var dir nn.Direction
	var conf float32
	var err error
	if p.predict != nil {
		dir, conf, err = p.predict(x)
	} else {
		dir, conf, err = p.activeModel().Predict(x)
	}
	if err != nil {
		return dst, fmt.Errorf("core: inference: %w", err)
	}
	p.inferences++
	if req, ok := p.trader.OnPrediction(dir, conf, snap); ok {
		dst = append(dst, req)
	}
	if p.sig != nil {
		p.sig(SignalEvent{
			Action:     dir,
			Confidence: conf,
			BidPrice:   p.bids[0].Price,
			BidQty:     p.bids[0].Qty,
			AskPrice:   p.asks[0].Price,
			AskQty:     p.asks[0].Qty,
			LastTrade:  p.lastTrade,
			TickNanos:  timeNanos,
		})
	}
	return dst, nil
}

// OnExecReport feeds an execution report back to the trading engine.
func (p *Pipeline) OnExecReport(rep exchange.ExecReport) { p.trader.OnExec(rep) }
