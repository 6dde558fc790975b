package bench

// The scheduling-policy comparison: every registered strategy (the paper's
// proactive PPW scheduler and the two naive baselines) across three traffic
// regimes, on the canonical instrumented configuration (DeepLOB, two
// accelerators, limited power, WS+DS). The matrix quantifies the paper's
// central claim — that proactive PPW scheduling beats reactive heuristics
// under bursty traffic. `make bench-sched` archives the rows as
// BENCH_sched.json.

import (
	"encoding/json"
	"fmt"
	"strings"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
)

// SchedRow is one (policy, workload) cell of the scheduling matrix.
type SchedRow struct {
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	// ResponseRate and MissRate are fractions of the submitted queries.
	ResponseRate float64 `json:"response_rate"`
	MissRate     float64 `json:"miss_rate"`
	MeanBatch    float64 `json:"mean_batch"`
	EnergyJ      float64 `json:"energy_joules"`
	// PPW is the run-level performance-per-watt proxy: responses per joule.
	PPW float64 `json:"responses_per_joule"`
}

// schedWorkload is one traffic regime of the matrix.
type schedWorkload struct {
	Name string
	Src  *scenario.Source
}

// schedWorkloads derives the three regimes from the paper script: a
// subcritical calm stream, the script itself (the near-critical bursty
// mixture), and a flash regime with the cascade component pushed next to
// criticality.
func schedWorkloads(src *scenario.Source) []schedWorkload {
	return []schedWorkload{
		{Name: "calm", Src: withBranching(src, 0.5)},
		{Name: "bursty", Src: src},
		{Name: "flash", Src: withBranching(src, 0.98)},
	}
}

// schedMatrixConfig is the system the matrix evaluates: the canonical
// instrumented configuration where every miss cause is exercised.
func schedMatrixConfig(factory sched.Factory) (core.SystemConfig, error) {
	return core.Configure(nn.NewDeepLOB(), 2, core.Limited, core.Options{
		WorkloadScheduling: true, DVFSScheduling: true, Scheduler: factory,
	})
}

// schedCell is one unit of matrix work: a policy factory on a workload.
type schedCell struct {
	policy   string
	workload schedWorkload
	tAvail   int64
	factory  sched.Factory
}

// SchedMatrixWorkers builds the full policy × workload comparison, its cells
// fanned across a worker pool (1 runs them serially). Cells share only the
// regimes' memoised tick streams, so rows are identical for any worker
// count.
func SchedMatrixWorkers(src *scenario.Source, tAvailNanos int64, workers int) []SchedRow {
	policies := []struct {
		name    string
		factory sched.Factory
	}{
		{"ppw", nil}, // nil factory: the engines' default PPW path
		{"fcfs", mustFactory("fcfs")},
		{"greedy", mustFactory("greedy")},
	}
	var cells []schedCell
	for _, w := range schedWorkloads(src) {
		for _, p := range policies {
			cells = append(cells, schedCell{policy: p.name, workload: w, tAvail: tAvailNanos, factory: p.factory})
		}
	}
	return RunMatrix(cells, workers, runSchedCell)
}

// mustFactory resolves a registered policy; the names are compile-time
// constants, so resolution cannot fail.
func mustFactory(name string) sched.Factory {
	f, err := sched.FactoryByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

// runSchedCell evaluates one (policy, workload) cell.
func runSchedCell(c schedCell) SchedRow {
	cfg, err := schedMatrixConfig(c.factory)
	if err != nil {
		panic(err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	m := sim.Run(c.workload.Src.Queries(c.tAvail), sys)
	row := SchedRow{
		Policy: c.policy, Workload: c.workload.Name,
		ResponseRate: m.ResponseRate, MissRate: m.MissRate,
		MeanBatch: m.MeanBatch, EnergyJ: m.EnergyJoules,
	}
	if m.EnergyJoules > 0 {
		row.PPW = float64(m.Responded) / m.EnergyJoules
	}
	return row
}

// RenderSchedMatrix renders the comparison table.
func RenderSchedMatrix(rows []SchedRow) string {
	var b strings.Builder
	header(&b, "Scheduler policies × workloads (DeepLOB, N=2, limited power, WS+DS)")
	fmt.Fprintf(&b, "%-8s %-8s %14s %10s %11s %11s %8s\n",
		"workload", "policy", "response rate", "miss rate", "mean batch", "energy (J)", "resp/J")
	last := ""
	for _, r := range rows {
		if last != "" && r.Workload != last {
			b.WriteString("\n")
		}
		last = r.Workload
		fmt.Fprintf(&b, "%-8s %-8s %14s %10s %11.2f %11.1f %8.0f\n",
			r.Workload, r.Policy, pct(r.ResponseRate), pct(r.MissRate),
			r.MeanBatch, r.EnergyJ, r.PPW)
	}
	b.WriteString("\nppw is Algorithm 1; fcfs and greedy are naive baselines over the\n")
	b.WriteString("same feasibility checks.\n")
	return b.String()
}

// SchedReport is the archived form of the matrix (BENCH_sched.json).
type SchedReport struct {
	Model       string     `json:"model"`
	Accels      int        `json:"accels"`
	Power       string     `json:"power"`
	Ticks       int        `json:"ticks"`
	TAvailNanos int64      `json:"t_avail_nanos"`
	Seed        int64      `json:"seed"`
	Rows        []SchedRow `json:"rows"`
}

// SchedMatrixJSON marshals the matrix with its generating parameters.
func SchedMatrixJSON(src *scenario.Source, tAvailNanos int64, rows []SchedRow) ([]byte, error) {
	rep := SchedReport{
		Model: "DeepLOB", Accels: 2, Power: core.Limited.Name,
		Ticks: len(src.Ticks()), TAvailNanos: tAvailNanos, Seed: src.Seed(),
		Rows: rows,
	}
	return json.MarshalIndent(rep, "", "  ")
}
