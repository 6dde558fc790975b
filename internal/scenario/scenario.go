// Package scenario is the unified traffic engine: a seeded, deterministic
// generator of composable market regimes — quiet drift, opening-auction
// bursts, flash crashes with book-sweep cascades, correlated multi-symbol
// shocks, trading halts and resumes, liquidity evaporation — scripted into
// a day as a sequence of timed phases over a real matching engine.
//
// A Source emits real SBE packet streams, so one scenario drives every
// deployment target byte-identically: the back-test simulator consumes its
// Queries() projection, the serving runtime ingests its Packets() through
// Server.Submit, and the live venue plays the script in real time on a
// World — the same stepper Ticks() runs to the end — so undisturbed it
// publishes exactly Packets() over UDP.
// Three traffic entry points, one source of truth (paper §II-C motivates
// exactly this: sub-second disruptions "more than once a day" whose tick
// rates dwarf steady state — they must hit sim, venue and serving alike
// to compare deployments).
//
// Determinism: a Source is a pure function of (script, seed). The same
// seed reproduces the byte stream exactly; a different seed reproduces the
// regime shape with different microstructure.
//
// It is the repository's one order-flow generator, offline and live: the
// paper figures, the tests, the examples, the command-line tools and the
// venue all read a Source.
package scenario

import (
	"errors"
	"fmt"
	"sync"

	"lighttrader/internal/feed"
	"lighttrader/internal/sim"
)

// Instrument is one listed symbol of a scenario's market.
type Instrument struct {
	SecurityID int32
	Symbol     string
	// MidPrice is the opening midpoint in ticks.
	MidPrice int64
	// DepthPerLevel is the resting quantity seeded on each visible level.
	DepthPerLevel int64
}

// ArrivalSpec selects how a phase's event times are drawn. Hawkes
// components are superposed; a Flash process injects rare intra-phase
// rate explosions; with neither set, events arrive as a plain Poisson
// stream at RateHz (a Poisson process is the Alpha=0 Hawkes degenerate).
type ArrivalSpec struct {
	Hawkes []feed.HawkesParams
	Flash  *feed.FlashParams
	RateHz float64
}

// process builds the phase-local arrival process, seeded deterministically.
func (a ArrivalSpec) process(seed int64) feed.ArrivalProcess {
	var procs []feed.ArrivalProcess
	for i, p := range a.Hawkes {
		procs = append(procs, feed.NewHawkes(p, seed+int64(i)*7919))
	}
	if a.Flash != nil {
		procs = append(procs, feed.NewFlash(*a.Flash, seed+15887))
	}
	if len(procs) == 0 {
		rate := a.RateHz
		if rate <= 0 {
			rate = 100
		}
		procs = append(procs, feed.NewHawkes(feed.HawkesParams{Mu: rate, Alpha: 0, Beta: 1}, seed))
	}
	if len(procs) == 1 {
		return procs[0]
	}
	return feed.NewProcessMixture(procs)
}

// FlowSpec is a phase's order-flow mix. The zero value selects DefaultFlow.
type FlowSpec struct {
	// MarketOrderProb, CancelProb and ReplaceProb partition the per-event
	// action draw; the remainder is new limit orders.
	MarketOrderProb float64
	CancelProb      float64
	ReplaceProb     float64
	// SweepProb is the probability an event is a book-sweep cascade: a
	// marketable order sized to consume the top SweepLevels of the opposite
	// side in one blow (§II-C's "a small number of orders can trigger a
	// massive number of orders").
	SweepProb   float64
	SweepLevels int
	// Bias is directional pressure in [-1, 1]: +1 makes every aggressor a
	// buyer, -1 a seller, 0 is symmetric.
	Bias float64
	// CrossProb is the fraction of limit orders priced through the touch.
	CrossProb float64
	// MaxOffset bounds passive limit placement distance from mid, in ticks.
	MaxOffset int64
	// QtyMax bounds per-order quantity.
	QtyMax int
}

// DefaultFlow is routine two-sided quoting: one event in ten is a market
// order, and the rest split between cancels, replaces and passive limits.
func DefaultFlow() FlowSpec {
	return FlowSpec{
		MarketOrderProb: 0.10,
		CancelProb:      0.25,
		ReplaceProb:     0.15,
		SweepLevels:     3,
		CrossProb:       0.10,
		MaxOffset:       10,
		QtyMax:          8,
	}
}

// Phase is one timed regime of a scenario day. Phases run back to back;
// entry actions fire at the phase boundary, then the arrival process drives
// the flow until the phase's duration elapses.
type Phase struct {
	Name         string
	DurationSecs float64
	Arrivals     ArrivalSpec
	Flow         FlowSpec
	// Withhold mutates the book and advances the channel sequence without
	// publishing a single packet — a trading halt as subscribers experience
	// it: silence, then a sequence gap no reorder window can bridge.
	Withhold bool
	// SnapshotOnEnter publishes a full recovery snapshot for every
	// instrument at the phase boundary (the venue's reopen broadcast).
	SnapshotOnEnter bool
	// EvaporateOnEnter cancels this fraction of resting tracked liquidity
	// at the phase boundary — liquidity evaporation as a cancel storm.
	EvaporateOnEnter float64
	// SweepOnEnter market-sweeps this many levels on every instrument at
	// the phase boundary (the flash-crash first domino).
	SweepOnEnter int
	// Correlated applies each event's action to every instrument in lock
	// step instead of one drawn at random — the multi-symbol shock where
	// index-linked books gap together.
	Correlated bool
}

// Script is a full scenario: the listed market plus its phase sequence. A
// script without phases is a static market: its books are seeded and
// nothing is ever published.
type Script struct {
	Instruments []Instrument
	Phases      []Phase
}

// validate rejects scripts the generator cannot run deterministically.
func (sc Script) validate() error {
	if len(sc.Instruments) == 0 {
		return errors.New("scenario: script lists no instruments")
	}
	seen := map[int32]bool{}
	for _, ins := range sc.Instruments {
		if ins.SecurityID == 0 || ins.Symbol == "" {
			return fmt.Errorf("scenario: instrument %+v needs a security id and symbol", ins)
		}
		if seen[ins.SecurityID] {
			return fmt.Errorf("scenario: duplicate security id %d", ins.SecurityID)
		}
		seen[ins.SecurityID] = true
		if ins.MidPrice <= 100 {
			return fmt.Errorf("scenario: instrument %s mid price %d too small", ins.Symbol, ins.MidPrice)
		}
	}
	for i, ph := range sc.Phases {
		if ph.DurationSecs <= 0 {
			return fmt.Errorf("scenario: phase %d (%s) needs a positive duration", i, ph.Name)
		}
		if ph.EvaporateOnEnter < 0 || ph.EvaporateOnEnter > 1 {
			return fmt.Errorf("scenario: phase %d (%s) evaporation fraction %v outside [0,1]",
				i, ph.Name, ph.EvaporateOnEnter)
		}
	}
	return nil
}

// PhaseSpan locates one phase's slice of the generated stream, for
// per-phase miss attribution and for tests that need regime boundaries
// (e.g. "which packet is the reopen snapshot").
type PhaseSpan struct {
	Name       string
	StartNanos int64
	EndNanos   int64
	// FirstTick and Ticks delimit the phase's published packets in the
	// Ticks()/Packets() stream. A withheld (halt) phase publishes nothing:
	// Ticks is 0 and Withheld counts the suppressed packets whose sequence
	// numbers subscribers will see as a gap.
	FirstTick int
	Ticks     int
	Withheld  int
}

// Source is the unified traffic API: a seeded, deterministic, memoised
// iterator of timestamped SBE packets with projections for every consumer.
// It is safe for concurrent use; the stream is generated once on first
// access and shared read-only afterwards.
type Source struct {
	name string
	seed int64

	script Script

	mu    sync.Mutex
	ticks []feed.Tick
	spans []PhaseSpan
}

// New builds a scripted Source. The name is the scenario's registry/flag
// vocabulary; seed makes the run reproducible.
func New(name string, script Script, seed int64) (*Source, error) {
	if err := script.validate(); err != nil {
		return nil, err
	}
	return &Source{name: name, seed: seed, script: script}, nil
}

// Name returns the scenario name (the -scenario flag vocabulary).
func (s *Source) Name() string { return s.name }

// Seed returns the generation seed.
func (s *Source) Seed() int64 { return s.seed }

// Script returns a deep copy of the phase script: callers derive new
// regimes by editing it and passing it to New with the same seed, and the
// edit never reaches this Source's (shared, read-only) script.
func (s *Source) Script() Script {
	sc := Script{
		Instruments: append([]Instrument(nil), s.script.Instruments...),
		Phases:      append([]Phase(nil), s.script.Phases...),
	}
	for i := range sc.Phases {
		a := &sc.Phases[i].Arrivals
		a.Hawkes = append([]feed.HawkesParams(nil), a.Hawkes...)
		if a.Flash != nil {
			f := *a.Flash
			a.Flash = &f
		}
	}
	return sc
}

// Ticks returns the scenario's full market-data stream: one Tick per
// published packet, carrying the encoded SBE datagram, its timestamp and
// the post-event book snapshot of the touched instrument. Generated once,
// then shared read-only.
func (s *Source) Ticks() []feed.Tick {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spans != nil {
		return s.ticks
	}
	ticks, spans := generateScript(s.script, s.seed)
	s.ticks, s.spans = ticks, spans
	return s.ticks
}

// Packets returns the raw byte stream: the exact datagrams a venue
// publishes for this scenario, in channel order.
func (s *Source) Packets() [][]byte {
	ticks := s.Ticks()
	out := make([][]byte, len(ticks))
	for i := range ticks {
		out[i] = ticks[i].Packet
	}
	return out
}

// Queries is the simulator projection: one query per published packet with
// the given per-query available time (t_avail).
func (s *Source) Queries(tAvailNanos int64) []sim.Query {
	return sim.QueriesFromTicks(s.Ticks(), tAvailNanos)
}

// PhaseSpans returns the phase boundaries of the generated stream.
func (s *Source) PhaseSpans() []PhaseSpan {
	s.Ticks() // ensure generated
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spans
}
