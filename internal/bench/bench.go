// Package bench regenerates every table and figure of the paper's
// evaluation (§IV). Each experiment has a builder returning structured
// rows and a renderer producing the table the paper reports; cmd/ltbench
// and the repository-level benchmarks drive them. EXPERIMENTS.md records
// paper-vs-measured values for each.
package bench

import (
	"fmt"
	"strings"

	"lighttrader/internal/core"
	"lighttrader/internal/feed"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sim"
)

// cascade indexes the near-critical cascade component in the paper
// script's Hawkes list; the burstiness sweeps move its branching ratio.
const cascade = 1

// DefaultTraffic is the workload every figure replays, as a scenario: one
// E-mini instrument and one phase of routine order flow whose arrivals mix
// a calm component of routine quoting, a rare near-critical cascade
// component whose local rate (≈9 k ticks/s) sits just above a single
// accelerator's service capacity, and a very rare flash process whose local
// rate exceeds even a multi-accelerator system — the multi-scale burst
// structure of §II-C (market disruptions "more than once a day"). At
// ltbench's default 77 s, seed 1 yields ≈ 40 000 ticks. Under
// ltbench's generous 20 ms horizon the misses are throughput-driven drops,
// as in the paper's bursty-traffic discussion, not per-query latency.
//
// The script is bench's own and not in the scenario registry: the
// registry's consumers (the chaos matrix, perf's replay) keep their rows.
func DefaultTraffic(seconds float64, seed int64) *scenario.Source {
	calm := feed.HawkesParams{Mu: 250, Alpha: 2000, Beta: 5000}
	burst := feed.HawkesParams{Mu: 6.5, Alpha: 540, Beta: 560}
	src, err := scenario.New("paper", scenario.Script{
		Instruments: []scenario.Instrument{{SecurityID: 1, Symbol: "ESU6", MidPrice: 450000, DepthPerLevel: 50}},
		Phases: []scenario.Phase{{
			Name:         "paper",
			DurationSecs: seconds,
			Arrivals: scenario.ArrivalSpec{
				Hawkes: []feed.HawkesParams{calm, burst},
				Flash:  &feed.FlashParams{MeanIntervalSecs: 11, DurationSecs: 0.005, RateHz: 75000},
			},
		}},
	}, seed)
	if err != nil {
		panic(err) // static script; only a non-positive length fails
	}
	return src
}

// rescript rebuilds src, under its name and seed, from its script after
// edit: how the experiments derive their traffic regimes, since scripts are
// data.
func rescript(src *scenario.Source, edit func(*scenario.Script)) *scenario.Source {
	sc := src.Script()
	edit(&sc)
	out, err := scenario.New(src.Name(), sc, src.Seed())
	if err != nil {
		panic(err)
	}
	return out
}

// withBranching derives src's regime whose cascade component has branching
// ratio n.
func withBranching(src *scenario.Source, n float64) *scenario.Source {
	return rescript(src, func(sc *scenario.Script) {
		for i := range sc.Phases {
			h := &sc.Phases[i].Arrivals.Hawkes[cascade]
			h.Alpha = h.Beta * n
		}
	})
}

// runLT builds and runs a LightTrader configuration.
func runLT(qs []sim.Query, m *nn.Model, n int, pc core.PowerCondition, opts core.Options) (sim.Metrics, core.SystemConfig) {
	cfg, err := core.Configure(m, n, pc, opts)
	if err != nil {
		panic(err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return sim.Run(qs, sys), cfg
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
