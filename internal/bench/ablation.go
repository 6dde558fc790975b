package bench

// Ablation studies for the design choices DESIGN.md calls out. These go
// beyond the paper's figures: they quantify why LightTrader's specific
// choices (PPW objective, BF16 default, bounded DVFS switching) matter by
// measuring the alternatives on the same workload.

import (
	"fmt"
	"strings"

	"lighttrader/internal/cgra"
	"lighttrader/internal/compile"
	"lighttrader/internal/core"
	"lighttrader/internal/feed"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
)

// PrecisionRow compares BF16 and INT8 execution for one model.
type PrecisionRow struct {
	Model     string
	BF16Nanos int64
	INT8Nanos int64
	// Speedup is end-to-end; DatapathSpeedup excludes the per-hyperblock
	// runtime-sync overhead and shows the raw lane-widening effect.
	Speedup         float64
	DatapathSpeedup float64
	BF16Bytes       int64 // input feature map
	INT8Bytes       int64
	Activity16      float64
}

// AblationPrecision measures the §III-C INT8 fast path: batch-1 latency at
// the top DVFS state for both precisions.
func AblationPrecision() []PrecisionRow {
	spec := cgra.DefaultSpec()
	top := cgra.DVFSState{FreqGHz: spec.MaxFreqGHz, Volt: spec.MaxVolt}
	var rows []PrecisionRow
	for _, m := range nn.BenchmarkModels() {
		k16, err := compile.CompileFor(m, spec, cgra.PrecisionBF16)
		if err != nil {
			panic(err)
		}
		k8, err := compile.CompileFor(m, spec, cgra.PrecisionINT8)
		if err != nil {
			panic(err)
		}
		b := k16.InferenceNanos(spec, top, 1)
		i := k8.InferenceNanos(spec, top, 1)
		var d16, d8 int64
		for bi := range k16.Blocks {
			d16 += k16.Blocks[bi].Cycles(1)
		}
		for bi := range k8.Blocks {
			d8 += k8.Blocks[bi].Cycles(1)
		}
		rows = append(rows, PrecisionRow{
			Model: m.Name(), BF16Nanos: b, INT8Nanos: i,
			Speedup:         float64(b) / float64(i),
			DatapathSpeedup: float64(d16) / float64(d8),
			BF16Bytes:       k16.InputBytes, INT8Bytes: k8.InputBytes,
			Activity16: k16.Activity,
		})
	}
	return rows
}

// RenderAblationPrecision renders the precision ablation.
func RenderAblationPrecision(rows []PrecisionRow) string {
	var b strings.Builder
	header(&b, "Ablation: BF16 vs INT8 execution (batch 1, 2.2 GHz)")
	fmt.Fprintf(&b, "%-12s %12s %12s %9s %10s %12s\n", "Model", "BF16 (µs)", "INT8 (µs)", "e2e", "datapath", "input bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12.1f %12.1f %8.2fx %9.2fx %5d → %4d\n",
			r.Model, float64(r.BF16Nanos)/1000, float64(r.INT8Nanos)/1000,
			r.Speedup, r.DatapathSpeedup, r.BF16Bytes, r.INT8Bytes)
	}
	b.WriteString("INT8 compresses the datapath share of latency; the host-engaged\n")
	b.WriteString("runtime-sync overhead per hyperblock is precision-independent, which\n")
	b.WriteString("is why the end-to-end gain is modest for these small networks.\n")
	return b.String()
}

// PolicyRow compares Algorithm 1 objectives for one (model, N).
type PolicyRow struct {
	Model     string
	NumAccels int
	// MissRate / Energy by registry policy name.
	MissRate map[string]float64
	EnergyJ  map[string]float64
}

// ablationPolicies are the registry policies: Algorithm 1's one candidate
// enumeration ranked by PPW, issued one query at a time in arrival order,
// and ranked by batch size.
var ablationPolicies = []string{"ppw", "fcfs", "greedy"}

// AblationPolicy compares the PPW objective against the single-issue and
// batch-first registry policies (WS+DS enabled, limited power).
func AblationPolicy(src *scenario.Source, tAvailNanos int64) []PolicyRow {
	qs := src.Queries(tAvailNanos)
	var rows []PolicyRow
	for _, m := range []*nn.Model{nn.NewVanillaCNN(), nn.NewDeepLOB()} {
		for _, n := range []int{1, 8} {
			row := PolicyRow{Model: m.Name(), NumAccels: n,
				MissRate: map[string]float64{}, EnergyJ: map[string]float64{}}
			for _, p := range ablationPolicies {
				f, err := sched.FactoryByName(p)
				if err != nil {
					panic(err)
				}
				metrics, _ := runLT(qs, m, n, core.Limited, core.Options{
					WorkloadScheduling: true, DVFSScheduling: true, Scheduler: f,
				})
				row.MissRate[p] = metrics.MissRate
				row.EnergyJ[p] = metrics.EnergyJoules
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderAblationPolicy renders the policy ablation.
func RenderAblationPolicy(rows []PolicyRow) string {
	var b strings.Builder
	header(&b, "Ablation: Algorithm 1 objective (WS+DS, limited power)")
	fmt.Fprintf(&b, "%-12s %3s | %22s | %22s | %22s\n", "Model", "N", "ppw", "fcfs", "greedy")
	for _, r := range rows {
		line := fmt.Sprintf("%-12s %3d |", r.Model, r.NumAccels)
		for _, p := range ablationPolicies {
			line += fmt.Sprintf(" miss %5.2f%%, %6.1f J |", 100*r.MissRate[p], r.EnergyJ[p])
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// SwitchDelayRow is one DVFS transition-cost point.
type SwitchDelayRow struct {
	SwitchNanos int64
	MissRate    float64
}

// AblationSwitchDelay sweeps the PMIC/PLL transition cost to show why the
// paper treats DVFS changes as hazards: past a few microseconds the stall
// eats the scheduling gain.
func AblationSwitchDelay(src *scenario.Source, tAvailNanos int64) []SwitchDelayRow {
	qs := src.Queries(tAvailNanos)
	var rows []SwitchDelayRow
	for _, sw := range []int64{0, 500, 2_000, 10_000, 50_000} {
		cfg, err := core.Configure(nn.NewDeepLOB(), 8, core.Limited,
			core.Options{WorkloadScheduling: true, DVFSScheduling: true})
		if err != nil {
			panic(err)
		}
		cfg.Sched.Spec.DVFSSwitchNanos = sw
		sys, err := core.NewSystem(cfg)
		if err != nil {
			panic(err)
		}
		m := sim.Run(qs, sys)
		rows = append(rows, SwitchDelayRow{SwitchNanos: sw, MissRate: m.MissRate})
	}
	return rows
}

// RenderAblationSwitchDelay renders the switch-delay sweep.
func RenderAblationSwitchDelay(rows []SwitchDelayRow) string {
	var b strings.Builder
	header(&b, "Ablation: DVFS switch delay (DeepLOB, N=8, limited power, WS+DS)")
	fmt.Fprintf(&b, "%14s %10s\n", "switch (µs)", "miss rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%14.1f %10s\n", float64(r.SwitchNanos)/1000, pct(r.MissRate))
	}
	return b.String()
}

// BurstinessRow is one traffic-burstiness point.
type BurstinessRow struct {
	BranchingRatio float64
	CV2            float64
	ResponseRate   float64
}

// AblationBurstiness sweeps the cascade component's branching ratio: the
// closer to critical the order flow, the more response rate a fixed system
// loses — §II-C's motivation for throughput-oriented scheduling.
func AblationBurstiness(src *scenario.Source, tAvailNanos int64) []BurstinessRow {
	var rows []BurstinessRow
	for _, n := range []float64{0.5, 0.8, 0.93, 0.964, 0.98} {
		regime := withBranching(src, n)
		stats := feed.ComputeStats(regime.Ticks())
		queries := regime.Queries(tAvailNanos)
		cfg, err := core.Configure(nn.NewDeepLOB(), 1, core.Sufficient, core.Options{})
		if err != nil {
			panic(err)
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			panic(err)
		}
		m := sim.Run(queries, sys)
		rows = append(rows, BurstinessRow{
			BranchingRatio: n, CV2: stats.CV2, ResponseRate: m.ResponseRate,
		})
	}
	return rows
}

// RenderAblationBurstiness renders the burstiness sweep.
func RenderAblationBurstiness(rows []BurstinessRow) string {
	var b strings.Builder
	header(&b, "Ablation: cascade branching ratio (DeepLOB, single accelerator)")
	fmt.Fprintf(&b, "%10s %8s %14s\n", "branching", "CV²", "response rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.3f %8.1f %14s\n", r.BranchingRatio, r.CV2, pct(r.ResponseRate))
	}
	return b.String()
}
