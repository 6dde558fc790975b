package bench

// The scenario × configuration chaos matrix: every registered market
// scenario (quiet drift, opening burst, flash crash, halt/resume, thin
// book, correlated multi-symbol shock, full trading day) against a ladder
// of system configurations, with per-cause miss attribution from
// sim.Tracer. This is where "as many scenarios as you can imagine" meets
// the paper's evaluation machinery: the same seeded byte streams that
// drive the venue and the serving runtime are projected to queries and
// replayed through the instrumented simulator. `make bench-scenario`
// archives the rows as BENCH_scenario.json.

import (
	"encoding/json"
	"fmt"
	"strings"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sim"
)

// scenarioSeed is the matrix's generation seed; one seed pins every cell.
const scenarioSeed = 1

// ScenarioTAvailNanos is the matrix's per-query horizon budget. 1 ms is
// tight enough that the burst scenarios overrun a single accelerator
// (misses appear and decompose) while the headroom rung stays clean.
const ScenarioTAvailNanos = 1_000_000

// ScenarioRow is one (scenario, config) cell of the chaos matrix.
type ScenarioRow struct {
	Scenario string `json:"scenario"`
	Config   string `json:"config"`
	Queries  int    `json:"queries"`
	// ResponseRate is responded / queries; the misses decompose below.
	ResponseRate     float64 `json:"response_rate"`
	Evicted          int     `json:"evicted"`
	DeferredDeadline int     `json:"deferred_deadline"`
	DeferredPower    int     `json:"deferred_power"`
	Late             int     `json:"late"`
	P99LatencyNanos  int64   `json:"p99_latency_nanos"`
}

// scenarioConfig is one system rung of the matrix ladder.
type scenarioConfig struct {
	Name   string
	Accels int
	Power  core.PowerCondition
	// Tight additionally pins the power budget to 1 W and bounds the offload
	// queue (the PR-8 differential envelope), so eviction and power-infeasible
	// causes fire alongside deadline misses.
	Tight bool
}

// scenarioConfigs spans the capacity range the paper's evaluation walks:
// a starved single accelerator, the canonical instrumented pair, and the
// headroom configuration.
func scenarioConfigs() []scenarioConfig {
	return []scenarioConfig{
		{Name: "n1-tight", Accels: 1, Power: core.Limited, Tight: true},
		{Name: "n2-limited", Accels: 2, Power: core.Limited},
		{Name: "n4-sufficient", Accels: 4, Power: core.Sufficient},
	}
}

// scenarioCell is one unit of matrix work.
type scenarioCell struct {
	src    *scenario.Source
	cfg    scenarioConfig
	tAvail int64
}

// ScenarioMatrixWorkers builds the full scenario × config chaos matrix,
// its cells fanned across a worker pool (1 runs them serially). Each scenario
// is generated once and shared read-only across its configuration rungs
// (Source memoises its ticks), so rows are identical for any worker count.
func ScenarioMatrixWorkers(tAvailNanos int64, workers int) []ScenarioRow {
	var cells []scenarioCell
	for _, name := range scenario.Names() {
		src, err := scenario.ByName(name, scenarioSeed)
		if err != nil {
			panic(err) // registry names; cannot fail
		}
		// Generate eagerly so parallel cells never race to build one stream.
		src.Ticks()
		for _, cfg := range scenarioConfigs() {
			cells = append(cells, scenarioCell{src: src, cfg: cfg, tAvail: tAvailNanos})
		}
	}
	return RunMatrix(cells, workers, runScenarioCell)
}

// runScenarioCell replays one scenario through one instrumented system.
func runScenarioCell(c scenarioCell) ScenarioRow {
	cfg, err := core.Configure(nn.NewDeepLOB(), c.cfg.Accels, c.cfg.Power,
		core.Options{WorkloadScheduling: true, DVFSScheduling: true})
	if err != nil {
		panic(err)
	}
	if c.cfg.Tight {
		cfg.Sched.PowerBudgetWatts = 1.0
		cfg.MaxQueue = 32
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	tr := sim.NewTracer()
	m := sim.RunWithOptions(c.src.Queries(c.tAvail), sys, sim.WithProbe(tr))
	attr := tr.Attribution()
	return ScenarioRow{
		Scenario: c.src.Name(), Config: c.cfg.Name,
		Queries: m.Total, ResponseRate: m.ResponseRate,
		Evicted: attr.Evicted, DeferredDeadline: attr.DeferredDeadline,
		DeferredPower: attr.DeferredPower, Late: attr.Late,
		P99LatencyNanos: m.P99LatencyNanos,
	}
}

// RenderScenarioMatrix renders the chaos-matrix table with per-cause miss
// attribution.
func RenderScenarioMatrix(rows []ScenarioRow) string {
	var b strings.Builder
	header(&b, "Market scenarios × configurations (DeepLOB, WS+DS, per-cause misses)")
	fmt.Fprintf(&b, "%-12s %-13s %8s %14s %8s %9s %7s %6s %10s\n",
		"scenario", "config", "queries", "response rate", "evicted", "def-ddl", "def-pw", "late", "p99 (µs)")
	last := ""
	for _, r := range rows {
		if last != "" && r.Scenario != last {
			b.WriteString("\n")
		}
		last = r.Scenario
		fmt.Fprintf(&b, "%-12s %-13s %8d %14s %8d %9d %7d %6d %10.1f\n",
			r.Scenario, r.Config, r.Queries, pct(r.ResponseRate),
			r.Evicted, r.DeferredDeadline, r.DeferredPower, r.Late,
			float64(r.P99LatencyNanos)/1e3)
	}
	b.WriteString("\nEach scenario is one seeded byte stream (scenario.Source) projected to\n")
	b.WriteString("queries; the identical bytes drive the venue and serving runtimes.\n")
	return b.String()
}

// ScenarioReport is the archived form of the matrix (BENCH_scenario.json).
type ScenarioReport struct {
	Model       string        `json:"model"`
	Seed        int64         `json:"seed"`
	TAvailNanos int64         `json:"t_avail_nanos"`
	Scenarios   []string      `json:"scenarios"`
	Rows        []ScenarioRow `json:"rows"`
}

// ScenarioMatrixJSON marshals the matrix with its generating parameters.
func ScenarioMatrixJSON(tAvailNanos int64, rows []ScenarioRow) ([]byte, error) {
	rep := ScenarioReport{
		Model: "DeepLOB", Seed: scenarioSeed, TAvailNanos: tAvailNanos,
		Scenarios: scenario.Names(), Rows: rows,
	}
	return json.MarshalIndent(rep, "", "  ")
}
