// Package bench regenerates every table and figure of the paper's
// evaluation (§IV). Each experiment has a builder returning structured
// rows and a renderer producing the table the paper reports; cmd/ltbench
// and the repository-level benchmarks drive them. EXPERIMENTS.md records
// paper-vs-measured values for each.
package bench

import (
	"fmt"
	"strings"
	"sync"

	"lighttrader/internal/core"
	"lighttrader/internal/feed"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sim"
)

// TrafficConfig defines the market-data workload all figure experiments
// replay: a Hawkes-clustered tick stream and the per-tick available time.
//
// Deprecated: constructing TrafficConfig field by field is the legacy
// entry point. New workloads should build a scenario.Source (or use
// scenario.ByName) and wrap it with FromScenario; the Hawkes/Flash fields
// remain as the adapter for the historical bursty-replay trace.
type TrafficConfig struct {
	// Calm is the routine-quoting Hawkes component (moderate clustering);
	// Burst is the rare near-critical cascade component; Flash is the very
	// rare flash-event component whose local rate exceeds even a multi-
	// accelerator system. Together they give the multi-scale burst
	// structure of §II-C (market disruptions "more than once a day").
	Calm  feed.HawkesParams
	Burst feed.HawkesParams
	Flash feed.FlashParams
	Seed  int64
	Ticks int
	// TAvailNanos is t_avail, the prediction-horizon budget per query.
	TAvailNanos int64
	// Scenario, when set, overrides the Hawkes/Flash replay entirely: the
	// query stream is the scenario's Queries() projection. A pointer keeps
	// TrafficConfig usable as the query-cache map key (sources are memoised
	// internally, so sharing one pointer across cells shares one stream).
	Scenario *scenario.Source
}

// FromScenario wraps a scenario Source as a benchmark workload.
func FromScenario(src *scenario.Source, tAvailNanos int64) TrafficConfig {
	return TrafficConfig{Scenario: src, Seed: src.Seed(), TAvailNanos: tAvailNanos}
}

// DefaultTraffic is calibrated so the response-rate experiments land in
// the paper's regimes: a calm component of routine quoting plus a rare
// near-critical cascade component whose local rate (≈9 k ticks/s) sits just
// above a single accelerator's service capacity, under a generous 20 ms
// horizon budget (misses are throughput-driven drops, as in the paper's
// bursty-traffic discussion, not per-query latency).
func DefaultTraffic() TrafficConfig {
	return TrafficConfig{
		Calm:        feed.HawkesParams{Mu: 250, Alpha: 2000, Beta: 5000},
		Burst:       feed.HawkesParams{Mu: 6.5, Alpha: 540, Beta: 560},
		Flash:       feed.FlashParams{MeanIntervalSecs: 11, DurationSecs: 0.005, RateHz: 75000},
		Seed:        1,
		Ticks:       40000,
		TAvailNanos: 20_000_000,
	}
}

// queryCache memoises generated query streams per config (trace generation
// dominates experiment runtime otherwise). queryCacheMu guards the map: the
// parallel experiment runner calls Queries from many goroutines. Each entry
// generates its stream once, outside the lock, however many callers ask for
// it first. The slices themselves are shared read-only across workers;
// system models never retain or mutate them.
var (
	queryCacheMu sync.Mutex
	queryCache   = map[TrafficConfig]*queryEntry{}
)

// queryEntry is one config's stream, generated by the first caller of once.
type queryEntry struct {
	once sync.Once
	qs   []sim.Query
}

// Queries generates (or reuses) the deterministic query stream. Safe for
// concurrent use; every caller for one config observes the same slice.
func (tc TrafficConfig) Queries() []sim.Query {
	queryCacheMu.Lock()
	e, ok := queryCache[tc]
	if !ok {
		e = new(queryEntry)
		queryCache[tc] = e
	}
	queryCacheMu.Unlock()
	e.once.Do(func() { e.qs = tc.generate() })
	return e.qs
}

// generate builds the query stream. Both branches go through
// scenario.Source — the unified traffic API; the legacy branch is
// byte-identical to the historical feed.Generator path.
func (tc TrafficConfig) generate() []sim.Query {
	src := tc.Scenario
	if src == nil {
		src = scenario.FromTraffic(tc.Calm, tc.Burst, tc.Flash, tc.Seed, tc.Ticks)
	}
	return src.Queries(tc.TAvailNanos)
}

// runLT builds and runs a LightTrader configuration.
func runLT(tc TrafficConfig, m *nn.Model, n int, pc core.PowerCondition, opts core.Options) (sim.Metrics, core.SystemConfig) {
	cfg, err := core.Configure(m, n, pc, opts)
	if err != nil {
		panic(err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return sim.Run(tc.Queries(), sys), cfg
}

// header renders an aligned table heading.
func header(b *strings.Builder, title string) {
	b.WriteString(title)
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", len(title)))
	b.WriteString("\n")
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%5.1f%%", 100*x) }
