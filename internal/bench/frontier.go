package bench

// The inference-compute frontier experiment: how much predictive accuracy
// each rung of the model zoo buys per nanosecond of modelled tick-to-trade
// latency, and how much response rate the scheduler's degrade-to-cheaper-
// model ladder recovers when a burst makes the full model infeasible.
//
// Accuracy side: zoo variants train on synthetic FI-2010-style LOB windows
// labelled by a fixed nonlinear teacher network that reads only the oldest
// rows of the window. The synthetic order flow itself carries almost no
// exploitable signal (see the root package's ExampleNewTrainer), so future-mid labels would score
// every architecture at the class prior and separate nothing; and a planted
// surface over the *whole* window grades nothing either, because the window
// manifold is so low-dimensional that a 320-parameter net fits it as well
// as a 310k-parameter one. Planting the label on the early rows makes the
// axis informational: each lookback rung provably observes a smaller slice
// of the label's support, so its accuracy ceiling falls with its window —
// the same history-for-latency trade the degrade ladder sells under load —
// and the ordering survives SGD noise because it is set by what the rung
// can see, not by how well a particular run optimised.
//
// Latency side: each variant is compiled to the CGRA kernel and priced by
// the scheduler's latency tables at the static DVFS point across batch
// sizes. A leading lookback crop is fused into the device DMA (the transfer
// starts at the crop offset), so shorter-lookback rungs move fewer bytes
// and run fewer conv rows: genuinely cheaper on both axes the scheduler
// prices.
//
// Recovery side: the flash-crash and opening scenarios replay through the
// serving runtime with a deadline budget the full DeepLOB primary can only
// meet when the queue is short. Drop-only mode loses the backlog; ladder
// mode re-runs admission against cheaper zoo rungs and answers it.
// `make bench-frontier` archives the rows as BENCH_frontier.json.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"lighttrader/internal/core"
	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/scenario"
	"lighttrader/internal/serve"
	"lighttrader/internal/tensor"
)

// FrontierConfig parameterises the frontier experiment. The zero value is
// not useful; start from DefaultFrontierConfig.
type FrontierConfig struct {
	// Seed drives trace generation and the recovery scenarios.
	Seed int64
	// Ticks is the length of the training trace (examples ≈ Ticks − Window).
	Ticks int
	// Epochs is the SGD epoch count per training run.
	Epochs int
	// Restarts is the number of independently seeded training runs per
	// variant; the reported accuracy is the best validation score over all
	// restarts and epochs. A single SGD trajectory is far too noisy to
	// expose the capacity ordering — one bad basin and a mid-sized net
	// scores below a tiny one — so each rung gets the same small tuning
	// budget and the frontier plots what the rung can achieve.
	Restarts int
	// LearnRate is the SGD learning rate.
	LearnRate float32
	// Batches are the batch sizes priced in the latency table.
	Batches []int
	// RecoveryScenarios are the scenario-registry names of the burst sweep.
	RecoveryScenarios []string
}

// DefaultFrontierConfig is the archived experiment's scale.
func DefaultFrontierConfig() FrontierConfig {
	return FrontierConfig{
		Seed:              1,
		Ticks:             4000,
		Epochs:            12,
		Restarts:          3,
		LearnRate:         0.02,
		Batches:           []int{1, 4, 16},
		RecoveryScenarios: []string{"flash-crash", "opening"},
	}
}

// FrontierVariantSpecs is the zoo slice the frontier walks: a lookback
// ladder over one CNN backbone (the zoo's history-length knob, cheaper at
// every step because both the C2C transfer and the conv stack scale with the
// kept rows) plus a double-width full-window rung as the capacity control.
// The ladder deliberately varies *information*, not width: on this data any
// smooth planted surface is fit equally well by a 320-parameter net and a
// 310k-parameter one (the window manifold is effectively low-dimensional),
// and surfaces hard enough to defeat small nets defeat SGD on the wide ones
// first — so width cannot grade the rungs, but what each rung can see of
// the label's support can, robustly, whatever basin a training run lands in.
func FrontierVariantSpecs() []nn.ZooSpec {
	return []nn.ZooSpec{
		{Name: "zoo-cnn-look52", Arch: nn.ZooCNN, Width: 8, ConvPoolStages: 1, Hidden: 64, Lookback: 52},
		{Name: "zoo-cnn-look56", Arch: nn.ZooCNN, Width: 8, ConvPoolStages: 1, Hidden: 64, Lookback: 56},
		{Name: "zoo-cnn-look60", Arch: nn.ZooCNN, Width: 8, ConvPoolStages: 1, Hidden: 64, Lookback: 60},
		{Name: "zoo-cnn-look64", Arch: nn.ZooCNN, Width: 8, ConvPoolStages: 1, Hidden: 64, Lookback: 64},
		{Name: "zoo-cnn-look76", Arch: nn.ZooCNN, Width: 8, ConvPoolStages: 1, Hidden: 64, Lookback: 76},
		{Name: "zoo-cnn-look88", Arch: nn.ZooCNN, Width: 8, ConvPoolStages: 1, Hidden: 64, Lookback: 88},
		{Name: "zoo-cnn-full", Arch: nn.ZooCNN, Width: 8, ConvPoolStages: 1, Hidden: 64},
		{Name: "zoo-cnn-wide", Arch: nn.ZooCNN, Width: 16, Depth: 1, ConvPoolStages: 1, Hidden: 64},
	}
}

// frontierTeacherSpec is the fixed labelling network. It reads only the
// oldest frontierTeacherRows rows of the window (the newer rows are zeroed
// before it runs), so a variant's accuracy ceiling is set by how much of
// the label's support its lookback still covers — plus whatever the trace's
// autocorrelation lets it reconstruct — which grades the ladder by
// information rather than by SGD luck.
func frontierTeacherSpec() nn.ZooSpec {
	return nn.ZooSpec{Name: "frontier-teacher", Arch: nn.ZooCNN,
		Width: 8, ConvPoolStages: 1, Hidden: 32, Seed: 7}
}

// frontierTeacherRows is how many of the window's oldest rows the teacher
// reads. A lookback-L rung sees rows [Window-L, Window), so it directly
// observes max(0, frontierTeacherRows-(Window-L)) of them: 4 at lookback
// 52, 16 at 64, 28 at 76, 40 at 88, all 52 at the full window.
const frontierTeacherRows = 52

// FrontierLatency is one batch point of a variant's latency profile.
type FrontierLatency struct {
	Batch int `json:"batch"`
	// TotalNanos is the modelled accelerator round trip (transfer + compute
	// + post-process) at the static DVFS point.
	TotalNanos int64 `json:"total_nanos"`
	// TickToTradeNanos adds the pre-pipeline feed/feature stages.
	TickToTradeNanos int64 `json:"tick_to_trade_nanos"`
	// PerQueryNanos is TickToTradeNanos amortised over the batch.
	PerQueryNanos int64 `json:"per_query_nanos"`
}

// FrontierRow is one zoo variant on the accuracy × latency frontier.
type FrontierRow struct {
	Name     string  `json:"name"`
	Arch     string  `json:"arch"`
	Width    int     `json:"width"`
	Depth    int     `json:"depth"`
	Lookback int     `json:"lookback"`
	Params   int64   `json:"params"`
	FLOPs    int64   `json:"flops"`
	Accuracy float64 `json:"accuracy"`
	// Latencies holds one entry per configured batch size.
	Latencies []FrontierLatency `json:"latencies"`
	// Pareto marks frontier membership at batch 1: no other variant is both
	// faster and more accurate.
	Pareto bool `json:"pareto"`
}

// RecoveryRow is one (scenario, mode) cell of the degrade sweep.
type RecoveryRow struct {
	Scenario string `json:"scenario"`
	// Mode is "drop-only" (no ladder: infeasible queries defer) or
	// "degrade" (ladder admission against cheaper zoo rungs).
	Mode             string  `json:"mode"`
	Submitted        int     `json:"submitted"`
	Served           int     `json:"served"`
	ResponseRate     float64 `json:"response_rate"`
	Evicted          int     `json:"evicted"`
	DeferredDeadline int     `json:"deferred_deadline"`
	DeferredPower    int     `json:"deferred_power"`
	Late             int     `json:"late"`
	// Degrades counts queries answered by a cheaper rung — visible cost,
	// never folded into Served silently.
	Degrades int `json:"degrades"`
	// TierIssues counts issued batches per rung (index 0 = full model).
	TierIssues []int `json:"tier_issues"`
}

// FrontierReport is the archived form of the experiment (BENCH_frontier.json).
type FrontierReport struct {
	Seed          int64  `json:"seed"`
	Ticks         int    `json:"ticks"`
	Epochs        int    `json:"epochs"`
	Restarts      int    `json:"restarts"`
	TrainExamples int    `json:"train_examples"`
	TestExamples  int    `json:"test_examples"`
	Teacher       string `json:"teacher"`
	// PrimaryModel and TierNames describe the recovery sweep's ladder.
	PrimaryModel        string        `json:"primary_model"`
	TierNames           []string      `json:"tier_names"`
	RecoveryTAvailNanos int64         `json:"recovery_t_avail_nanos"`
	Variants            []FrontierRow `json:"variants"`
	Recovery            []RecoveryRow `json:"recovery"`
}

// frontierOutputs runs one teacher over the window set and returns its
// class-centred outputs (per-class mean subtracted, so argmax and sign are
// balanced regardless of the teacher's random output bias).
func frontierOutputs(spec nn.ZooSpec, xs []*tensor.Tensor) [][]float32 {
	teacher := nn.MustBuildZoo(spec)
	outs := make([][]float32, len(xs))
	mean := make([]float64, nn.NumClasses)
	for i, x := range xs {
		out, err := teacher.Forward(x)
		if err != nil {
			panic(err)
		}
		p := make([]float32, nn.NumClasses)
		copy(p, out.Data()[:nn.NumClasses])
		outs[i] = p
		for c := 0; c < nn.NumClasses; c++ {
			mean[c] += float64(p[c])
		}
	}
	for c := range mean {
		mean[c] /= float64(len(xs))
	}
	for _, p := range outs {
		for c := range p {
			p[c] -= float32(mean[c])
		}
	}
	return outs
}

// frontierDataset builds the labelled window set: feature windows from
// the first fc.Ticks ticks of a one-book, one-phase script at
// feed.DefaultCMEParams, labels from the argmax of the teacher's
// class-centred outputs over a masked copy of each window that keeps only
// the oldest frontierTeacherRows rows — the students always see the full
// (or lookback-cropped) window, so what separates them is how much of the
// teacher's input region their lookback covers.
func frontierDataset(fc FrontierConfig) ([]*tensor.Tensor, []nn.Direction) {
	// The script runs twice as long as the mean rate needs for fc.Ticks.
	p := feed.DefaultCMEParams()
	seconds := 2 * float64(fc.Ticks) * (1 - p.BranchingRatio()) / p.Mu
	src, err := scenario.New("frontier", scenario.Script{
		Instruments: []scenario.Instrument{{SecurityID: 1, Symbol: "ESU6", MidPrice: 450000, DepthPerLevel: 50}},
		Phases: []scenario.Phase{{Name: "cme", DurationSecs: seconds,
			Arrivals: scenario.ArrivalSpec{Hawkes: []feed.HawkesParams{p}}}},
	}, fc.Seed)
	if err != nil {
		panic(err)
	}
	trace := src.Ticks()
	trace = trace[:min(len(trace), fc.Ticks)]
	snaps := make([]lob.Snapshot, len(trace))
	for i := range trace {
		snaps[i] = trace[i].Snapshot
	}
	norm := offload.Calibrate(snaps)
	// Horizon 1 maximises the window count; the direction labels are
	// discarded in favour of the teacher's.
	xs, _ := offload.BuildDataset(trace, norm, 1, 0)

	// The teacher reads a censored copy: rows frontierTeacherRows and newer
	// (row 0 is the oldest) are zeroed, so the label depends only on the
	// oldest slice of history.
	masked := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		mx := x.Clone()
		d := mx.Data()
		w := x.Shape()[2]
		for j := frontierTeacherRows * w; j < len(d); j++ {
			d[j] = 0
		}
		masked[i] = mx
	}
	outs := frontierOutputs(frontierTeacherSpec(), masked)
	labels := make([]nn.Direction, len(xs))
	for i, p := range outs {
		best := 0
		for c := 1; c < nn.NumClasses; c++ {
			if p[c] > p[best] {
				best = c
			}
		}
		labels[i] = nn.Direction(best)
	}
	return xs, labels
}

// frontierLatencies prices one compiled variant across the batch sizes.
func frontierLatencies(syscfg core.SystemConfig, batches []int) []FrontierLatency {
	out := make([]FrontierLatency, 0, len(batches))
	for _, b := range batches {
		total := syscfg.Sched.TotalNanos(syscfg.Sched.StaticDVFS, b)
		ttr := syscfg.PrePipelineNanos + total
		out = append(out, FrontierLatency{
			Batch: b, TotalNanos: total,
			TickToTradeNanos: ttr,
			PerQueryNanos:    ttr / int64(b),
		})
	}
	return out
}

// markPareto flags batch-1 frontier membership: a variant is dominated if
// another is strictly faster with at least its accuracy, or at least as
// fast with strictly higher accuracy.
func markPareto(rows []FrontierRow) {
	for i := range rows {
		dominated := false
		for j := range rows {
			if i == j {
				continue
			}
			fasterEq := rows[j].Latencies[0].TickToTradeNanos <= rows[i].Latencies[0].TickToTradeNanos
			faster := rows[j].Latencies[0].TickToTradeNanos < rows[i].Latencies[0].TickToTradeNanos
			accEq := rows[j].Accuracy >= rows[i].Accuracy
			acc := rows[j].Accuracy > rows[i].Accuracy
			if (faster && accEq) || (fasterEq && acc) {
				dominated = true
				break
			}
		}
		rows[i].Pareto = !dominated
	}
}

// FrontierSweep trains and prices every variant, then runs the recovery
// sweep. Deterministic for a given config: fixed seeds, fixed SGD order,
// modelled clocks.
func FrontierSweep(fc FrontierConfig) FrontierReport {
	xs, labels := frontierDataset(fc)
	split := len(xs) * 4 / 5

	restarts := fc.Restarts
	if restarts < 1 {
		restarts = 1
	}
	rep := FrontierReport{
		Seed: fc.Seed, Ticks: fc.Ticks, Epochs: fc.Epochs, Restarts: restarts,
		TrainExamples: split, TestExamples: len(xs) - split,
		Teacher: frontierTeacherSpec().Name,
	}
	for _, spec := range FrontierVariantSpecs() {
		var acc float64
		var m *nn.Model
		// Every rung gets the same rate and budget; when Restarts > 1 the
		// budget doubles as a small learning-rate sweep (each restart halves
		// the rate) with the best validation score kept.
		for r := 0; r < restarts; r++ {
			sp := spec
			sp.Seed = fc.Seed + int64(r)*1009
			m = nn.MustBuildZoo(sp)
			tr, err := nn.NewTrainer(m, fc.LearnRate/float32(int32(1)<<r))
			if err != nil {
				panic(err) // CNN-family variants are trainable by construction
			}
			for e := 0; e < fc.Epochs; e++ {
				if _, err := tr.Epoch(xs[:split], labels[:split]); err != nil {
					panic(err)
				}
				a, err := nn.Accuracy(m, xs[split:], labels[split:])
				if err != nil {
					panic(err)
				}
				if a > acc {
					acc = a
				}
			}
		}
		// Latency depends only on the architecture, not the weights, so the
		// last trained instance prices the rung.
		syscfg, err := core.Configure(m, 1, core.Sufficient,
			core.Options{WorkloadScheduling: true})
		if err != nil {
			panic(err)
		}
		lb := spec.Lookback
		if lb == 0 {
			lb = nn.Window
		}
		rep.Variants = append(rep.Variants, FrontierRow{
			Name: spec.Name, Arch: spec.Arch.String(),
			Width: spec.Width, Depth: spec.Depth, Lookback: lb,
			Params: m.Params(), FLOPs: m.TotalFLOPs(),
			Accuracy:  acc,
			Latencies: frontierLatencies(syscfg, fc.Batches),
		})
	}
	sort.Slice(rep.Variants, func(i, j int) bool {
		return rep.Variants[i].Latencies[0].TickToTradeNanos <
			rep.Variants[j].Latencies[0].TickToTradeNanos
	})
	markPareto(rep.Variants)

	rep.Recovery, rep.PrimaryModel, rep.TierNames, rep.RecoveryTAvailNanos =
		frontierRecovery(fc)
	return rep
}

// frontierRecoveryLadder compiles the recovery sweep's ladder: the DeepLOB
// primary plus two cost-descending CNN rungs from the frontier slice, all on
// the same accelerator spec and power envelope.
func frontierRecoveryLadder() (primary core.SystemConfig, tiers []serve.TierConfig, names []string) {
	primary, err := core.Configure(nn.NewDeepLOB(), 1, core.Sufficient,
		core.Options{WorkloadScheduling: true})
	if err != nil {
		panic(err)
	}
	specs := FrontierVariantSpecs()
	for _, name := range []string{"zoo-cnn-look76", "zoo-cnn-look52"} {
		for _, spec := range specs {
			if spec.Name != name {
				continue
			}
			m := nn.MustBuildZoo(spec)
			syscfg, err := core.Configure(m, 1, core.Sufficient,
				core.Options{WorkloadScheduling: true})
			if err != nil {
				panic(err)
			}
			cfg := syscfg.Sched
			tiers = append(tiers, serve.TierConfig{Sched: &cfg, Model: m})
			names = append(names, name)
		}
	}
	return primary, tiers, names
}

// frontierRecovery replays the burst scenarios through the serving runtime
// with the ladder on and off. The deadline budget is set a little above the
// primary's batch-1 service time: a short queue stays on the full model, a
// burst backlog pushes the oldest deadline inside the degrade window.
func frontierRecovery(fc FrontierConfig) ([]RecoveryRow, string, []string, int64) {
	primary, tiers, names := frontierRecoveryLadder()
	primaryTT := primary.Sched.TotalNanos(primary.Sched.StaticDVFS, 1)
	tAvail := primary.PrePipelineNanos + primaryTT*3/2

	run := func(src *scenario.Source, withLadder bool) RecoveryRow {
		cfg := serve.Config{
			Lanes:            1,
			Inline:           true,
			ModelledClock:    true,
			MaxQueue:         64,
			Sched:            &primary.Sched,
			TAvailNanos:      tAvail,
			PrePipelineNanos: primary.PrePipelineNanos,
		}
		mode := "drop-only"
		if withLadder {
			cfg.Tiers = tiers
			mode = "degrade"
		}
		srv, err := serve.New(sourceMulti(src), cfg)
		if err != nil {
			panic(err)
		}
		qs := src.Queries(tAvail)
		packets := src.Packets()
		for i, q := range qs {
			if err := srv.Submit(q.ArrivalNanos, packets[i]); err != nil {
				panic(err) // scenario packets always parse
			}
		}
		srv.Drain()
		st := srv.Stats()
		return RecoveryRow{
			Scenario: src.Name(), Mode: mode,
			Submitted: st.Submitted, Served: st.Served,
			ResponseRate:     st.ResponseRate,
			Evicted:          st.EvictedQueueFull,
			DeferredDeadline: st.DeferredDeadline, DeferredPower: st.DeferredPower,
			Late: st.Late, Degrades: st.Degrades, TierIssues: st.TierIssues,
		}
	}

	var rows []RecoveryRow
	for _, name := range fc.RecoveryScenarios {
		src, err := scenario.ByName(name, fc.Seed)
		if err != nil {
			panic(err) // registry names; cannot fail
		}
		rows = append(rows, run(src, false), run(src, true))
	}
	return rows, "DeepLOB", names, tAvail
}

// RenderFrontier renders the frontier and recovery tables.
func RenderFrontier(rep FrontierReport) string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Inference-compute frontier (%d variants, %d/%d train/test, teacher %s, best of %d×%d restart-epochs)",
		len(rep.Variants), rep.TrainExamples, rep.TestExamples, rep.Teacher,
		rep.Restarts, rep.Epochs))
	fmt.Fprintf(&b, "%-18s %9s %11s %9s  %-26s %7s\n",
		"variant", "params", "flops", "accuracy", "tick-to-trade (b=1/4/16)", "pareto")
	for _, v := range rep.Variants {
		lat := make([]string, 0, len(v.Latencies))
		for _, l := range v.Latencies {
			lat = append(lat, fmt.Sprintf("%.1fµs", float64(l.TickToTradeNanos)/1000))
		}
		mark := ""
		if v.Pareto {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-18s %9d %11d %8.1f%%  %-26s %7s\n",
			v.Name, v.Params, v.FLOPs, 100*v.Accuracy, strings.Join(lat, " / "), mark)
	}
	b.WriteString("\n* on the batch-1 frontier: no variant is both faster and more accurate.\n")

	header(&b, fmt.Sprintf("Burst recovery via model degradation (primary %s, tiers %s, %.0f µs budget)",
		rep.PrimaryModel, strings.Join(rep.TierNames, "→"), float64(rep.RecoveryTAvailNanos)/1000))
	fmt.Fprintf(&b, "%-12s %-10s %14s %9s %9s %6s %9s %s\n",
		"scenario", "mode", "response rate", "def-ddl", "evicted", "late", "degrades", "tier issues")
	last := ""
	for _, r := range rep.Recovery {
		if last != "" && r.Scenario != last {
			b.WriteString("\n")
		}
		last = r.Scenario
		fmt.Fprintf(&b, "%-12s %-10s %14s %9d %9d %6d %9d %v\n",
			r.Scenario, r.Mode, pct(r.ResponseRate), r.DeferredDeadline,
			r.Evicted, r.Late, r.Degrades, r.TierIssues)
	}
	b.WriteString("\ndrop-only defers every query the full model cannot meet; degrade\n")
	b.WriteString("re-runs admission down the ladder and answers it on a cheaper rung.\n")
	b.WriteString("Degraded answers are counted, not hidden: the accuracy column above\n")
	b.WriteString("prices what each recovered response costs.\n")
	return b.String()
}

// FrontierJSON marshals the report for BENCH_frontier.json.
func FrontierJSON(rep FrontierReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
