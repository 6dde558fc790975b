// Package signal is the distribution tier of the appliance: a fan-out
// gateway that carries each lane's inference results to large subscriber
// populations without ever touching the tick-to-trade hot path's latency
// budget. The serving runtime computes per-symbol predictions as fast as
// the lanes allow; this package is how that throughput reaches "heavy
// traffic from millions of users" — the deployment-at-scale leg the
// data-centre FPGA trading literature argues is where accelerated engines
// earn their keep.
//
// Three mechanisms keep fan-out cost off the lane:
//
//   - A publish hook (Publisher.Publish, installed on each pipeline as its
//     core.SignalHook) that does one arena-backed copy into the symbol's
//     conflated slot and returns. With no subscribers it is a counter
//     increment and a branch — single-digit nanoseconds, zero allocations
//     — and it never blocks: waking the fan-out shards is a non-blocking
//     channel send.
//
//   - Per-symbol conflated streams. Each symbol owns one latest-value slot
//     plus a monotonic sequence counter; a subscriber that cannot keep up
//     always sees the newest state next, never an unbounded backlog.
//     Updates conflated away are counted per subscriber and per symbol
//     (dropped-update accounting), so "how stale was I" is observable.
//
//   - A sharded subscriber registry: a fixed shard count, each shard a
//     goroutine owning a copy-on-write slice of its subscribers per
//     symbol, mutated under a per-shard mutex. Fan-out work spreads
//     across shards (and therefore cores) instead of serialising on one
//     lock; slow consumers cost only their own drop counters.
//
// External clients attach over a length-prefixed TCP wire protocol (see
// wire.go, server.go, client.go) with per-connection conflation and write
// deadlines, so one stalled socket drops its own updates and eventually
// its own connection — never a shard, never a lane.
package signal

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/latency"
	"lighttrader/internal/nn"
)

// Gateway errors.
var (
	// ErrClosed is returned by Register and Subscribe on a closed gateway.
	ErrClosed = errors.New("signal: gateway closed")
	// ErrUnknownSymbol is returned by Subscribe for a symbol no publisher
	// has registered.
	ErrUnknownSymbol = errors.New("signal: unknown symbol")
)

// horizonTicks is the prediction horizon, in ticks, stamped into every
// TradeSignal.
const horizonTicks = 10

// TradeSignal is one published prediction: the action/confidence/horizon
// triple plus the top-of-book context it was made from. Signals are value
// types — they copy freely through conflation slots, channels and wire
// frames without aliasing gateway state.
type TradeSignal struct {
	// Symbol and SecurityID identify the instrument.
	Symbol     string
	SecurityID int32
	// Seq is the symbol's publish sequence number (1-based, monotonic).
	// Gaps between consecutively received Seq values are exactly the
	// updates conflation dropped for this consumer.
	Seq uint64
	// Action is the predicted direction; Confidence its probability.
	Action     nn.Direction
	Confidence float32
	// HorizonTicks is the prediction horizon the serving models were
	// trained for (horizonTicks).
	HorizonTicks int32
	// Top-of-book snapshot at prediction time.
	BidPrice, BidQty int64
	AskPrice, AskQty int64
	LastTrade        int64
	// ArrivalNanos is the book-event (tick) time the prediction was made
	// from; PublishNanos is the gateway clock at publish. Their difference
	// plus delivery lag is the end-to-end signal age a consumer observes.
	ArrivalNanos int64
	PublishNanos int64
}

// Config parameterises a Gateway.
type Config struct {
	// Shards is the fixed fan-out shard count (one goroutine each).
	// 0 selects 8; negative is an error.
	Shards int
	// Heartbeat is the wire keep-alive interval (0 selects 500ms).
	Heartbeat time.Duration
	// WriteTimeout is the per-connection write deadline: a TCP subscriber
	// that stalls a write past it is disconnected (0 selects 250ms).
	WriteTimeout time.Duration
	// ConnWriteBuffer, when > 0, shrinks each accepted connection's kernel
	// send buffer so a stalled reader hits the write deadline with bounded
	// memory behind it, instead of silently absorbing megabytes of stale
	// signals. 0 keeps the OS default.
	ConnWriteBuffer int
	// clock supplies PublishNanos and the propagation-latency timestamps;
	// nil selects the wall clock. In-package tests pin it.
	clock func() int64
}

// Gateway is the signal-distribution tier. Build with NewGateway, register
// one Publisher per symbol (serve.Config.Signals does this for every
// pipeline), Subscribe in-process consumers or Serve a TCP listener, and
// Close when done.
type Gateway struct {
	cfg    Config
	shards []*shard

	regMu sync.Mutex
	bySym map[string]*slot
	slots atomic.Pointer[[]*slot]

	subCount  atomic.Int64
	nextShard atomic.Uint64

	lat       *latency.Sharded
	delivered atomic.Uint64

	connsOpen    atomic.Int64
	connsTotal   atomic.Uint64
	connsDropped atomic.Uint64

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewGateway builds a gateway and starts its fan-out shards. The caller
// owns its lifecycle: Close stops the shards (and any Serve loops).
func NewGateway(cfg Config) (*Gateway, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("signal: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 250 * time.Millisecond
	}
	g := &Gateway{
		cfg:   cfg,
		bySym: make(map[string]*slot),
		lat:   latency.NewSharded(cfg.Shards),
		stop:  make(chan struct{}),
	}
	empty := make([]*slot, 0)
	g.slots.Store(&empty)
	g.shards = make([]*shard, cfg.Shards)
	for i := range g.shards {
		g.shards[i] = newShard(g, i)
		g.wg.Add(1)
		go g.shards[i].run()
	}
	return g, nil
}

// Shards returns the fixed fan-out shard count.
func (g *Gateway) Shards() int { return len(g.shards) }

// now reads the gateway clock.
func (g *Gateway) now() int64 {
	if g.cfg.clock != nil {
		return g.cfg.clock()
	}
	return time.Now().UnixNano()
}

// Close stops the fan-out shards and any Serve loops, then waits for them.
// Publishers on a closed gateway only advance counters; subscriptions stop
// receiving. Close is idempotent.
func (g *Gateway) Close() {
	if g.closed.Swap(true) {
		return
	}
	close(g.stop)
	g.wg.Wait()
}

// Register creates the conflated stream for one symbol and returns its
// Publisher. Each symbol registers once; serve.New does this for every
// pipeline when a gateway is attached. The returned Publisher must have a
// single writer (the owning lane) — its slot is a single-producer stream.
func (g *Gateway) Register(symbol string, securityID int32) (*Publisher, error) {
	if g.closed.Load() {
		return nil, ErrClosed
	}
	g.regMu.Lock()
	defer g.regMu.Unlock()
	if _, dup := g.bySym[symbol]; dup {
		return nil, fmt.Errorf("signal: symbol %q already registered", symbol)
	}
	s := &slot{
		gw:     g,
		symbol: symbol,
		sec:    securityID,
		dirty:  make([]atomic.Uint32, len(g.shards)),
		lists:  make([]atomic.Pointer[subList], len(g.shards)),
	}
	g.bySym[symbol] = s
	old := *g.slots.Load()
	grown := make([]*slot, len(old)+1)
	copy(grown, old)
	grown[len(old)] = s
	g.slots.Store(&grown)
	return &Publisher{s: s}, nil
}

// slotFor resolves a symbol (registration-path lookup; not for fan-out).
func (g *Gateway) slotFor(symbol string) *slot {
	g.regMu.Lock()
	defer g.regMu.Unlock()
	return g.bySym[symbol]
}

// slot is one symbol's conflated stream: a latest-value cell plus the
// publish-sequence counter and per-shard subscriber lists.
type slot struct {
	gw     *Gateway
	symbol string
	sec    int32

	// published counts Publish calls (the signal sequence). subs is the
	// live subscriber count across shards. everSub latches on the first
	// subscriber ever — the publish fast path's idle check: a symbol nobody
	// has ever watched pays only a counter increment per publish, while a
	// once-watched symbol keeps its conflation slot fresh so re-joiners
	// warm-start. drops accumulates conflated-away updates.
	published atomic.Uint64
	subs      atomic.Int64
	everSub   atomic.Bool
	drops     atomic.Uint64

	// dirty[i] flags shard i for this slot; lists[i] is shard i's
	// copy-on-write subscriber slice (nil until the first subscribe).
	dirty []atomic.Uint32
	lists []atomic.Pointer[subList]

	// val is the latest-value cell — the arena the publish hook copies
	// into. The mutex is held only for the copy, never across anything
	// that can block.
	mu     sync.Mutex
	hasVal bool
	val    TradeSignal
}

// subList is a copy-on-write subscriber slice (replaced whole on churn).
type subList struct {
	subs []*subscriber
}

// Publisher is one symbol's publish endpoint. Publish is the lane-side
// hook: install it on a pipeline with SetSignalHook(pub.Publish), or call
// it directly from a synthetic feed (the fan-out bench does).
type Publisher struct {
	s *slot
}

// Publish records one prediction. Single writer per Publisher. The fast
// path — a symbol no subscriber has ever watched — is one counter
// increment and one atomic load; the active path is one copy into the
// conflation slot plus a non-blocking wake per interested shard. Publish
// never blocks and never allocates.
func (p *Publisher) Publish(ev core.SignalEvent) {
	s := p.s
	n := s.published.Add(1)
	if !s.everSub.Load() {
		return
	}
	sig := TradeSignal{
		Symbol:       s.symbol,
		SecurityID:   s.sec,
		Seq:          n,
		Action:       ev.Action,
		Confidence:   ev.Confidence,
		HorizonTicks: horizonTicks,
		BidPrice:     ev.BidPrice,
		BidQty:       ev.BidQty,
		AskPrice:     ev.AskPrice,
		AskQty:       ev.AskQty,
		LastTrade:    ev.LastTrade,
		ArrivalNanos: ev.TickNanos,
		PublishNanos: s.gw.now(),
	}
	s.mu.Lock()
	s.val = sig
	s.hasVal = true
	s.mu.Unlock()
	if s.subs.Load() == 0 {
		return // slot kept fresh for re-joiners; nobody to wake
	}
	for i := range s.dirty {
		if s.lists[i].Load() == nil {
			continue
		}
		if s.dirty[i].Swap(1) == 0 {
			s.gw.shards[i].notify()
		}
	}
}

// latest copies the newest published value into out, reporting the slot's
// current state. Used by fan-out shards (once per shard per wake, not per
// subscriber) and by late joiners.
func (s *slot) latest(out *TradeSignal) bool {
	s.mu.Lock()
	ok := s.hasVal
	if ok {
		*out = s.val
	}
	s.mu.Unlock()
	return ok
}

// Subscription is one in-process conflated consumer. Receive from C; the
// channel carries the latest-value-wins stream documented on Subscribe.
type Subscription struct {
	sub *subscriber
}

// C returns the signal channel. It is never closed — consumers select
// against their own done channel or context. After Close no further
// signals are delivered (at most one already-in-flight value remains
// buffered).
func (s *Subscription) C() <-chan TradeSignal { return s.sub.ch }

// Drops returns how many updates conflation has dropped for this
// subscriber: publishes skipped because only the latest value is kept,
// plus buffered values replaced before the consumer received them.
func (s *Subscription) Drops() uint64 { return s.sub.drops.Load() }

// Close unsubscribes. Idempotent; safe concurrently with delivery.
func (s *Subscription) Close() { s.sub.unsubscribe() }

// Subscribe opens a conflated in-process subscription to one symbol.
//
// The contract is latest-value-wins: the returned channel has capacity
// one, and the gateway only ever offers the newest published signal. A
// consumer that keeps up sees every update; a consumer that falls behind
// finds exactly the most recent state on its next receive, with the
// intervening updates counted in Subscription.Drops — the backlog is
// bounded at one signal no matter how slow the reader is. Seq gaps in the
// received stream equal the dropped updates.
//
// Warm start: a subscriber joining a stream that already holds a latest
// value (any signal published since the symbol first gained a subscriber)
// receives that value immediately, and history before its subscription is
// not counted in Drops.
func (g *Gateway) Subscribe(symbol string) (*Subscription, error) {
	if g.closed.Load() {
		return nil, ErrClosed
	}
	s := g.slotFor(symbol)
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSymbol, symbol)
	}
	sub := &subscriber{
		slot: s,
		ch:   make(chan TradeSignal, 1),
		seen: initialSeen(s),
	}
	g.attach(sub)
	return &Subscription{sub: sub}, nil
}

// initialSeen is a new subscriber's starting watermark: one before the
// current publish sequence, so the pre-existing latest value (if any) is
// delivered to late joiners while older history is not counted as drops.
func initialSeen(s *slot) uint64 {
	if n := s.published.Load(); n > 0 {
		return n - 1
	}
	return 0
}

// attach places sub on the next shard round-robin and makes it live.
func (g *Gateway) attach(sub *subscriber) {
	sh := g.shards[int(g.nextShard.Add(1)-1)%len(g.shards)]
	sub.shard = sh
	s := sub.slot
	s.everSub.Store(true) // publishes from here on keep the slot fresh
	sh.mu.Lock()
	old := s.lists[sh.id].Load()
	var grown subList
	if old != nil {
		grown.subs = make([]*subscriber, len(old.subs)+1)
		copy(grown.subs, old.subs)
		grown.subs[len(old.subs)] = sub
	} else {
		grown.subs = []*subscriber{sub}
	}
	s.lists[sh.id].Store(&grown)
	sh.mu.Unlock()
	s.subs.Add(1)
	g.subCount.Add(1)
	// A value published before this subscriber existed is still the
	// latest state: hand it over so late joiners start warm.
	if s.published.Load() > 0 {
		s.dirty[sh.id].Store(1)
		sh.notify()
	}
}

// Stats is a point-in-time copy of the gateway counters. All counters are
// monotonic except Subscribers and ConnsOpen (gauges).
type Stats struct {
	// Published counts publish-hook invocations across symbols.
	Published uint64
	// Delivered counts signal deliveries to subscribers (in-process
	// channel offers and wire-connection conflation-cell updates).
	Delivered uint64
	// ConflationDrops counts updates dropped by latest-value conflation,
	// summed over subscribers.
	ConflationDrops uint64
	// Subscribers is the current live subscription count (gauge).
	Subscribers int
	// ConnsOpen / ConnsTotal / ConnsDropped count TCP subscriber
	// connections (open now, accepted ever, dropped for write timeouts or
	// liveness expiry).
	ConnsOpen    int
	ConnsTotal   uint64
	ConnsDropped uint64
}

// Stats returns the current gateway counters.
func (g *Gateway) Stats() Stats {
	var published, drops uint64
	for _, s := range *g.slots.Load() {
		published += s.published.Load()
		drops += s.drops.Load()
	}
	return Stats{
		Published:       published,
		Delivered:       g.delivered.Load(),
		ConflationDrops: drops,
		Subscribers:     int(g.subCount.Load()),
		ConnsOpen:       int(g.connsOpen.Load()),
		ConnsTotal:      g.connsTotal.Load(),
		ConnsDropped:    g.connsDropped.Load(),
	}
}

// SymbolCounters is one symbol's publish/drop accounting.
type SymbolCounters struct {
	Symbol string
	// Published counts publish-hook invocations for this symbol.
	Published uint64
	// ConflationDrops counts updates conflated away across this symbol's
	// subscribers.
	ConflationDrops uint64
	// Subscribers is the symbol's current subscription count (gauge).
	Subscribers int
}

// SymbolStats returns per-symbol counters, sorted by symbol.
func (g *Gateway) SymbolStats() []SymbolCounters {
	slots := *g.slots.Load()
	out := make([]SymbolCounters, 0, len(slots))
	for _, s := range slots {
		out = append(out, SymbolCounters{
			Symbol:          s.symbol,
			Published:       s.published.Load(),
			ConflationDrops: s.drops.Load(),
			Subscribers:     int(s.subs.Load()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Symbol < out[j].Symbol })
	return out
}

// Propagation returns the publish→delivery latency digest, merged across
// fan-out shards.
func (g *Gateway) Propagation() latency.Summary { return g.lat.Summarize() }

// ShardBusyNanos returns each shard's accumulated fan-out work time (wall
// nanoseconds spent scanning and delivering). The maximum entry is the
// fan-out makespan of a replay: deliveries divided by it is the modelled
// fan-out throughput on sufficient cores, the same methodology as the
// serving runtime's ModelledBusyNanos.
func (g *Gateway) ShardBusyNanos() []int64 {
	out := make([]int64, len(g.shards))
	for i, sh := range g.shards {
		out[i] = sh.busyNanos.Load()
	}
	return out
}

// Drain blocks until every shard has consumed its dirty flags and gone
// idle — a quiesce point for benches and tests (publishers must be paused
// first, or new publishes re-dirty the shards).
func (g *Gateway) Drain() {
	for {
		idle := true
		for _, s := range *g.slots.Load() {
			for i := range s.dirty {
				if s.dirty[i].Load() != 0 {
					idle = false
				}
			}
		}
		for _, sh := range g.shards {
			if sh.scanning.Load() {
				idle = false
			}
		}
		if idle || g.closed.Load() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}
