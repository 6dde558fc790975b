package core

import (
	"fmt"

	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/trading"
)

// MultiPipeline is the subscription set of a multi-symbol deployment (§II-C:
// "even if only a single symbol is subscribed" implies the general case): one
// functional pipeline per instrument over a shared market-data channel, each
// filtering to its own security and keeping an independent book, model and
// risk state. It dispatches nothing itself — the serving runtime
// (internal/serve) parses each datagram once and shards the set across its
// lanes, inline on the caller's goroutine at Lanes: 0.
type MultiPipeline struct {
	pipes   map[int32]*Pipeline
	symbols map[string]int32 // symbol → securityID, for duplicate detection
	order   []int32          // subscription order
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

// Pipelines returns every subscribed pipeline in subscription order.
func (mp *MultiPipeline) Pipelines() []*Pipeline {
	out := make([]*Pipeline, len(mp.order))
	for i, id := range mp.order {
		out[i] = mp.pipes[id]
	}
	return out
}

// Len returns the number of subscriptions.
func (mp *MultiPipeline) Len() int { return len(mp.order) }
