package core

import (
	"fmt"

	"lighttrader/internal/exchange"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/sbe"
	"lighttrader/internal/trading"
)

// MultiPipeline runs one functional pipeline per subscribed instrument over
// a shared market-data channel, the multi-symbol deployment of §II-C
// ("even if only a single symbol is subscribed" implies the general case).
// Each datagram is parsed once and dispatched; every pipeline filters to
// its own security and maintains an independent book, model and risk state.
//
// MultiPipeline itself is the strictly serial dispatch path; the concurrent
// serving runtime (internal/serve) shards the same subscription set across
// worker lanes and reduces to this behaviour in its single-lane
// configuration.
type MultiPipeline struct {
	pipes   map[int32]*Pipeline
	symbols map[string]int32 // symbol → securityID, for duplicate detection
	order   []int32          // deterministic dispatch order
	// pktBuf backs OnPacket's decode: the packet is consumed within the call.
	pktBuf sbe.PacketBuffer
}

// NewMultiPipeline returns an empty multi-instrument pipeline.
func NewMultiPipeline() *MultiPipeline {
	return &MultiPipeline{
		pipes:   make(map[int32]*Pipeline),
		symbols: make(map[string]int32),
	}
}

// Add subscribes an instrument with its own model, normaliser and limits.
// Both the security ID and the symbol string must be new: two subscriptions
// may not share either key.
func (mp *MultiPipeline) Add(symbol string, securityID int32, model *nn.Model, norm offload.Normalizer, tcfg trading.Config) error {
	p, err := NewPipeline(symbol, securityID, model, norm, tcfg)
	if err != nil {
		return err
	}
	return mp.Attach(p)
}

// Attach subscribes an already-assembled pipeline (the single-instrument
// wire path builds its Pipeline first and joins a multi-symbol deployment
// later). The same uniqueness rules as Add apply.
func (mp *MultiPipeline) Attach(p *Pipeline) error {
	if _, dup := mp.pipes[p.SecurityID()]; dup {
		return fmt.Errorf("core: security %d already subscribed", p.SecurityID())
	}
	if id, dup := mp.symbols[p.Symbol()]; dup {
		return fmt.Errorf("core: symbol %q already subscribed as security %d", p.Symbol(), id)
	}
	mp.pipes[p.SecurityID()] = p
	mp.symbols[p.Symbol()] = p.SecurityID()
	mp.order = append(mp.order, p.SecurityID())
	return nil
}

// Pipeline returns the per-instrument pipeline.
func (mp *MultiPipeline) Pipeline(securityID int32) (*Pipeline, bool) {
	p, ok := mp.pipes[securityID]
	return p, ok
}

// Pipelines returns every subscribed pipeline in subscription order.
func (mp *MultiPipeline) Pipelines() []*Pipeline {
	out := make([]*Pipeline, len(mp.order))
	for i, id := range mp.order {
		out[i] = mp.pipes[id]
	}
	return out
}

// Symbols returns the subscribed symbols in subscription order.
func (mp *MultiPipeline) Symbols() []string {
	out := make([]string, len(mp.order))
	for i, id := range mp.order {
		out[i] = mp.pipes[id].Symbol()
	}
	return out
}

// SecurityIDs returns the subscribed security IDs in subscription order.
func (mp *MultiPipeline) SecurityIDs() []int32 {
	out := make([]int32, len(mp.order))
	copy(out, mp.order)
	return out
}

// Len returns the number of subscriptions.
func (mp *MultiPipeline) Len() int { return len(mp.order) }

// OnPacket parses one datagram and dispatches it to every subscription,
// concatenating the generated order requests.
func (mp *MultiPipeline) OnPacket(buf []byte) ([]exchange.Request, error) {
	pkt, err := sbe.DecodePacketInto(buf, &mp.pktBuf)
	if err != nil {
		return nil, fmt.Errorf("core: packet parse: %w", err)
	}
	return mp.OnDecodedPacket(pkt)
}

// OnDecodedPacket dispatches an already-decoded packet to every
// subscription in subscription order (the arbitrated-feed path).
func (mp *MultiPipeline) OnDecodedPacket(pkt sbe.Packet) ([]exchange.Request, error) {
	var orders []exchange.Request
	for _, id := range mp.order {
		reqs, err := mp.pipes[id].OnDecodedPacket(pkt)
		if err != nil {
			return orders, err
		}
		orders = append(orders, reqs...)
	}
	return orders, nil
}

// OnExecReport routes an execution report to the owning instrument.
func (mp *MultiPipeline) OnExecReport(rep exchange.ExecReport) {
	if p, ok := mp.pipes[rep.SecurityID]; ok {
		p.OnExecReport(rep)
	}
}
