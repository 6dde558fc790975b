// Package feed holds the arrival processes and the trace format of the
// market-data traffic.
//
// The paper evaluates LightTrader against CME E-mini S&P 500 historical tick
// data, whose defining property for the experiments is extreme burstiness:
// inter-tick gaps swing from microseconds inside event clusters to seconds
// between them (§II-C). That proprietary trace is replaced by a
// self-exciting Hawkes point process — the standard econometric model for
// exactly this clustering — mixed with rare flash windows. The scenario
// package drives a real matching engine at these arrival times, so ticks
// have both realistic timing and internally consistent book content. A
// trace is a Tick slice, serialisable to a binary file for exactly
// re-runnable back-tests.
package feed

import (
	"math"
	"math/rand"
)

// HawkesParams parameterises an exponential-kernel Hawkes process with
// intensity λ(t) = Mu + Σ_{t_i < t} Alpha·exp(−Beta·(t−t_i)).
type HawkesParams struct {
	// Mu is the baseline intensity in events per second.
	Mu float64
	// Alpha is the jump in intensity contributed by each event (1/s).
	Alpha float64
	// Beta is the exponential decay rate of excitation (1/s). The process
	// is stationary only when Alpha/Beta < 1; Alpha/Beta is the branching
	// ratio (expected children per event).
	Beta float64
}

// BranchingRatio returns Alpha/Beta, the expected number of direct child
// events triggered by one event.
func (p HawkesParams) BranchingRatio() float64 { return p.Alpha / p.Beta }

// DefaultCMEParams approximates E-mini S&P 500 front-month tick traffic:
// ~2,000 ticks/s on average with heavy clustering (branching ratio 0.8),
// which yields inter-arrival times from single-digit microseconds inside
// bursts to hundreds of milliseconds between them.
func DefaultCMEParams() HawkesParams {
	return HawkesParams{Mu: 400, Alpha: 16000, Beta: 20000}
}

// Hawkes samples event times by Ogata's thinning algorithm. Not safe for
// concurrent use.
type Hawkes struct {
	p   HawkesParams
	rng *rand.Rand
	// excitation state: intensity above baseline at time last, in 1/s
	excess float64
	last   float64 // seconds
}

// NewHawkes returns a sampler seeded deterministically.
func NewHawkes(p HawkesParams, seed int64) *Hawkes {
	if p.Mu <= 0 || p.Alpha < 0 || p.Beta <= 0 {
		panic("feed: invalid Hawkes parameters")
	}
	return &Hawkes{p: p, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next event time in seconds since the process origin.
// Successive calls produce a strictly increasing sequence.
func (h *Hawkes) Next() float64 {
	t := h.last
	excess := h.excess
	for {
		lambdaBar := h.p.Mu + excess
		t += h.rng.ExpFloat64() / lambdaBar
		excess = h.excess * math.Exp(-h.p.Beta*(t-h.last))
		if h.rng.Float64()*lambdaBar <= h.p.Mu+excess {
			h.excess = excess + h.p.Alpha
			h.last = t
			return t
		}
	}
}

// NextNanos returns the next event time in integer nanoseconds, guaranteed
// strictly greater than the previous event's nanosecond timestamp.
func (h *Hawkes) NextNanos() int64 {
	prev := int64(h.last * 1e9)
	n := int64(h.Next() * 1e9)
	if n <= prev {
		n = prev + 1
		h.last = float64(n) / 1e9
	}
	return n
}
