package feed

import (
	"fmt"
	"math/rand"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
)

// Tick is one market-data event as seen by the HFT system: the encoded
// datagram (for the functional packet-parsing path) plus the post-event book
// snapshot (for the simulation fast path, mirroring the paper's profiled
// replay).
type Tick struct {
	TimeNanos int64
	Packet    []byte
	Snapshot  lob.Snapshot
}

// GeneratorConfig controls the synthetic order-flow model.
type GeneratorConfig struct {
	Hawkes HawkesParams
	// Arrivals, when non-nil, overrides Hawkes with an arbitrary arrival
	// process (e.g. a mixture including flash events).
	Arrivals   ArrivalProcess
	Seed       int64
	SecurityID int32
	Symbol     string
	// MidPrice is the initial midpoint in ticks.
	MidPrice int64
	// SeedDepthPerLevel is the resting quantity placed on each of the ten
	// levels per side before generation starts.
	SeedDepthPerLevel int64
	// MaxOffset is the maximum distance in ticks from mid for new limit
	// orders.
	MaxOffset int64
	// MarketOrderProb, CancelProb, ReplaceProb partition the order-flow mix;
	// the remainder is new limit orders.
	MarketOrderProb float64
	CancelProb      float64
	ReplaceProb     float64
}

// DefaultGeneratorConfig returns the configuration used by the paper-shape
// experiments: ES-like tick traffic around 4500.00 (price 450000 in
// quarter-tick units).
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Hawkes:            DefaultCMEParams(),
		Seed:              1,
		SecurityID:        1,
		Symbol:            "ESU6",
		MidPrice:          450000,
		SeedDepthPerLevel: 50,
		MaxOffset:         10,
		MarketOrderProb:   0.10,
		CancelProb:        0.25,
		ReplaceProb:       0.15,
	}
}

// Generator drives a matching engine with Hawkes-timed random order flow and
// captures the published market data as a tick stream.
type Generator struct {
	cfg      GeneratorConfig
	rng      *rand.Rand
	arrivals ArrivalProcess
	eng      *exchange.Engine
	book     *lob.Book

	now     int64
	nextID  uint64
	live    []uint64
	packets [][]byte
}

// NewGenerator builds a generator with a freshly seeded matching engine.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if cfg.MidPrice <= cfg.MaxOffset {
		return nil, fmt.Errorf("feed: mid price %d too small for offset %d", cfg.MidPrice, cfg.MaxOffset)
	}
	g := &Generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	g.arrivals = cfg.Arrivals
	if g.arrivals == nil {
		g.arrivals = NewHawkes(cfg.Hawkes, cfg.Seed+1)
	}
	g.eng = exchange.New(func() int64 { return g.now }, func(buf []byte) {
		cp := make([]byte, len(buf))
		copy(cp, buf)
		g.packets = append(g.packets, cp)
	})
	g.eng.ListSecurity(cfg.SecurityID, cfg.Symbol)
	g.book, _ = g.eng.Book(cfg.SecurityID)
	g.seedBook()
	return g, nil
}

// seedBook places initial resting depth on both sides. The seeding orders
// are not tracked as live so the generator never cancels the backstop
// liquidity at the deepest levels.
func (g *Generator) seedBook() {
	for lvl := int64(1); lvl <= lob.DepthLevels; lvl++ {
		g.submit(exchange.Request{
			Kind: exchange.ReqNew, SecurityID: g.cfg.SecurityID, ClOrdID: g.id(),
			Side: lob.Bid, Price: g.cfg.MidPrice - lvl, Qty: g.cfg.SeedDepthPerLevel,
		})
		g.submit(exchange.Request{
			Kind: exchange.ReqNew, SecurityID: g.cfg.SecurityID, ClOrdID: g.id(),
			Side: lob.Ask, Price: g.cfg.MidPrice + lvl, Qty: g.cfg.SeedDepthPerLevel,
		})
	}
	g.packets = nil // seeding is not part of the trace
}

func (g *Generator) id() uint64 {
	g.nextID++
	return g.nextID
}

func (g *Generator) submit(req exchange.Request) []exchange.ExecReport {
	return g.eng.Submit(req)
}

// mid returns the current midpoint, falling back to the configured start.
func (g *Generator) mid() int64 {
	if m, ok := g.book.Mid(); ok {
		return int64(m)
	}
	return g.cfg.MidPrice
}

// Generate produces n ticks. Events that mutate only hidden state (e.g. a
// cancel of an unknown order) are retried with a different action so exactly
// n ticks are emitted.
func (g *Generator) Generate(n int) []Tick {
	ticks := make([]Tick, 0, n)
	for len(ticks) < n {
		g.now = g.arrivals.NextNanos()
		g.packets = g.packets[:0]
		g.step()
		for _, pkt := range g.packets {
			if len(ticks) == n {
				break
			}
			ticks = append(ticks, Tick{
				TimeNanos: g.now,
				Packet:    pkt,
				Snapshot:  g.book.TakeSnapshot(g.now),
			})
		}
	}
	return ticks
}

// step performs one random order-flow action.
func (g *Generator) step() {
	r := g.rng.Float64()
	switch {
	case r < g.cfg.MarketOrderProb:
		side := lob.Side(g.rng.Intn(2))
		qty := int64(1 + g.rng.Intn(8))
		g.submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: g.cfg.SecurityID,
			ClOrdID: g.id(), Side: side, Type: exchange.Market, Qty: qty})
	case r < g.cfg.MarketOrderProb+g.cfg.CancelProb && len(g.live) > 0:
		idx := g.rng.Intn(len(g.live))
		id := g.live[idx]
		g.live = append(g.live[:idx], g.live[idx+1:]...)
		g.submit(exchange.Request{Kind: exchange.ReqCancel, SecurityID: g.cfg.SecurityID, ClOrdID: id})
	case r < g.cfg.MarketOrderProb+g.cfg.CancelProb+g.cfg.ReplaceProb && len(g.live) > 0:
		idx := g.rng.Intn(len(g.live))
		id := g.live[idx]
		g.live = append(g.live[:idx], g.live[idx+1:]...)
		newID := g.id()
		side := lob.Bid
		if o, ok := g.book.Order(id); ok {
			side = o.Side
		}
		price := g.limitPrice(side)
		reps := g.submit(exchange.Request{Kind: exchange.ReqReplace, SecurityID: g.cfg.SecurityID,
			ClOrdID: id, NewClOrdID: newID, Side: side, Price: price, Qty: int64(1 + g.rng.Intn(10))})
		if reps[0].Exec == exchange.ExecReplaced {
			if _, resting := g.book.Order(newID); resting {
				g.live = append(g.live, newID)
			}
		}
	default:
		side := lob.Side(g.rng.Intn(2))
		id := g.id()
		price := g.limitPrice(side)
		g.submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: g.cfg.SecurityID,
			ClOrdID: id, Side: side, Price: price, Qty: int64(1 + g.rng.Intn(10))})
		if _, resting := g.book.Order(id); resting {
			g.live = append(g.live, id)
		}
	}
}

// limitPrice draws a price near the mid; 10% of limit orders are priced
// aggressively enough to cross, producing trades and price movement.
func (g *Generator) limitPrice(side lob.Side) int64 {
	mid := g.mid()
	off := 1 + g.rng.Int63n(g.cfg.MaxOffset)
	if g.rng.Float64() < 0.10 {
		off = -off // crossing order
	}
	if side == lob.Bid {
		return mid - off
	}
	return mid + off
}
