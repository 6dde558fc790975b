// Package trading implements the trading engine of paper §III-A: it
// post-processes inference results, applies the risk checks that manage
// the black-box nature of the AI algorithm, and generates orders for the
// exchange. Position is tracked from execution reports so the engine never
// exceeds its configured exposure.
package trading

import (
	"fmt"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
)

// Config bounds the engine's behaviour.
type Config struct {
	SecurityID int32
	// OrderQty is the size of each generated order.
	OrderQty int64
	// MaxPosition caps absolute net position; signals that would exceed it
	// are suppressed (risk check).
	MaxPosition int64
	// MinConfidence suppresses predictions below this probability.
	MinConfidence float32
	// FirstClOrdID seeds client order id allocation; ids increase from it.
	FirstClOrdID uint64
	// DecisionLogCap bounds the decision log: once cap decisions have been
	// recorded the oldest are overwritten ring-style, keeping the hot path
	// allocation-free in steady state. 0 keeps every decision (unbounded).
	DecisionLogCap int
}

// DefaultConfig returns conservative limits for one instrument.
func DefaultConfig(securityID int32) Config {
	return Config{
		SecurityID:    securityID,
		OrderQty:      1,
		MaxPosition:   10,
		MinConfidence: 0.4,
		FirstClOrdID:  1_000_000,
	}
}

// Decision records one signal and what the engine did with it.
type Decision struct {
	TimeNanos  int64
	Direction  nn.Direction
	Confidence float32
	Acted      bool
	Suppressed string // reason when not acted
	ClOrdID    uint64
}

// Engine converts predictions into orders under risk limits.
type Engine struct {
	cfg       Config
	nextID    uint64
	position  int64 // filled net position
	openBid   int64 // resting buy quantity
	openAsk   int64 // resting sell quantity
	decisions []Decision
	decHead   int // ring write index, used once len(decisions) == DecisionLogCap
	orders    int
	// sides remembers each live order's side so execution reports that
	// omit it (e.g. binary acks) are still applied correctly.
	sides map[uint64]lob.Side
	// cash is the signed cost basis of all fills: selling adds
	// price·qty, buying subtracts it. Marking position to a mid yields
	// net PnL.
	cash int64
}

// NewEngine constructs a trading engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.OrderQty <= 0 {
		return nil, fmt.Errorf("trading: order qty %d must be positive", cfg.OrderQty)
	}
	if cfg.MaxPosition <= 0 {
		return nil, fmt.Errorf("trading: max position %d must be positive", cfg.MaxPosition)
	}
	e := &Engine{cfg: cfg, nextID: cfg.FirstClOrdID, sides: make(map[uint64]lob.Side)}
	if cfg.DecisionLogCap > 0 {
		// The capped log is a ring of known size: allocated once here, not
		// regrown by record's append while the first cap ticks trade.
		e.decisions = make([]Decision, 0, cfg.DecisionLogCap)
	}
	return e, nil
}

// Position returns the current filled net position (positive = long).
func (e *Engine) Position() int64 { return e.position }

// MarkToMarket returns net PnL with the open position valued at mid, in
// price·lot units (ticks × lots).
func (e *Engine) MarkToMarket(mid float64) float64 {
	return float64(e.cash) + float64(e.position)*mid
}

// Orders returns how many orders the engine has generated.
func (e *Engine) Orders() int { return e.orders }

// Decisions returns the decision log in chronological order. With a
// DecisionLogCap configured it holds at most the cap's most recent entries.
func (e *Engine) Decisions() []Decision {
	cap := e.cfg.DecisionLogCap
	if cap == 0 || len(e.decisions) < cap || e.decHead == 0 {
		return e.decisions
	}
	out := make([]Decision, 0, len(e.decisions))
	out = append(out, e.decisions[e.decHead:]...)
	out = append(out, e.decisions[:e.decHead]...)
	return out
}

// record appends one decision, overwriting the oldest once the configured
// ring capacity is reached.
func (e *Engine) record(d Decision) {
	if cap := e.cfg.DecisionLogCap; cap > 0 && len(e.decisions) >= cap {
		e.decisions[e.decHead] = d
		e.decHead++
		if e.decHead == cap {
			e.decHead = 0
		}
		return
	}
	e.decisions = append(e.decisions, d)
}

// OnPrediction consumes one inference result together with the snapshot it
// was computed from, returning an order request when the signal passes the
// risk checks. The order is an aggressive limit at the touch: buy at the
// best ask on Up, sell at the best bid on Down.
func (e *Engine) OnPrediction(dir nn.Direction, conf float32, snap lob.Snapshot) (exchange.Request, bool) {
	d := Decision{TimeNanos: snap.TimeNanos, Direction: dir, Confidence: conf}
	defer func() { e.record(d) }()

	if dir == nn.Stationary {
		d.Suppressed = "stationary"
		return exchange.Request{}, false
	}
	if conf < e.cfg.MinConfidence {
		d.Suppressed = "low confidence"
		return exchange.Request{}, false
	}
	var side lob.Side
	var price int64
	if dir == nn.Up {
		if e.position+e.openBid+e.cfg.OrderQty > e.cfg.MaxPosition {
			d.Suppressed = "position limit"
			return exchange.Request{}, false
		}
		side = lob.Bid
		price = snap.Asks[0].Price
	} else {
		if -(e.position-e.openAsk)+e.cfg.OrderQty > e.cfg.MaxPosition {
			d.Suppressed = "position limit"
			return exchange.Request{}, false
		}
		side = lob.Ask
		price = snap.Bids[0].Price
	}
	if price == 0 {
		d.Suppressed = "empty touch"
		return exchange.Request{}, false
	}
	e.nextID++
	e.sides[e.nextID] = side
	if side == lob.Bid {
		e.openBid += e.cfg.OrderQty
	} else {
		e.openAsk += e.cfg.OrderQty
	}
	e.orders++
	d.Acted = true
	d.ClOrdID = e.nextID
	return exchange.Request{
		Kind:       exchange.ReqNew,
		SecurityID: e.cfg.SecurityID,
		ClOrdID:    e.nextID,
		Side:       side,
		Type:       exchange.Limit,
		Price:      price,
		Qty:        e.cfg.OrderQty,
	}, true
}

// OnExec consumes an execution report for one of the engine's orders,
// updating position and open-order exposure. The side recorded at order
// generation takes precedence over the report's (binary acks omit it).
func (e *Engine) OnExec(rep exchange.ExecReport) {
	if side, ok := e.sides[rep.ClOrdID]; ok {
		rep.Side = side
	}
	switch rep.Exec {
	case exchange.ExecFilled, exchange.ExecPartialFill:
		if rep.Side == lob.Bid {
			e.position += rep.Qty
			e.cash -= rep.Price * rep.Qty
			e.openBid -= rep.Qty
			if e.openBid < 0 {
				e.openBid = 0
			}
		} else {
			e.position -= rep.Qty
			e.cash += rep.Price * rep.Qty
			e.openAsk -= rep.Qty
			if e.openAsk < 0 {
				e.openAsk = 0
			}
		}
		if rep.Exec == exchange.ExecFilled {
			// Full fill is terminal: retire the side record so steady-state
			// order flow does not grow the map without bound.
			delete(e.sides, rep.ClOrdID)
		}
	case exchange.ExecCanceled, exchange.ExecRejected:
		delete(e.sides, rep.ClOrdID)
		if rep.Side == lob.Bid {
			e.openBid -= rep.Qty
			if e.openBid < 0 {
				e.openBid = 0
			}
		} else {
			e.openAsk -= rep.Qty
			if e.openAsk < 0 {
				e.openAsk = 0
			}
		}
	}
}
