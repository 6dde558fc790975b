package bench

// The parallel experiment harness. Experiments are independent (each builds
// its own system models; the only shared state is the source's memoised,
// read-only tick stream), so they fan out across a bounded worker pool. Parallelism is
// strictly across experiments, never inside one — each experiment still
// drives its simulator serially, so outputs are bit-identical to a serial
// run and the determinism invariant of internal/sim holds.

import (
	"runtime"
	"sync"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
)

// Experiment is one independently runnable unit of the evaluation: a name
// (the -exp selector) and a builder+renderer returning the report text.
type Experiment struct {
	Name string
	Run  func() string
}

// Result is one experiment's rendered output plus its wall time.
type Result struct {
	Name   string
	Output string
	Wall   time.Duration
}

// Experiments returns the full evaluation suite over src's queries at
// horizon tAvailNanos, in presentation order: the paper's tables and
// figures, then the ablations.
func Experiments(src *scenario.Source, tAvailNanos int64) []Experiment {
	return []Experiment{
		{Name: "tableI", Run: RenderTableI},
		{Name: "tableII", Run: RenderTableII},
		{Name: "tableIII", Run: RenderTableIII},
		{Name: "fig8", Run: func() string { return RenderFig8(Fig8(src, tAvailNanos)) }},
		{Name: "fig9", Run: func() string { return RenderFig9(Fig9()) }},
		{Name: "fig11", Run: func() string { return RenderFig11(Fig11(src, tAvailNanos)) }},
		{Name: "fig12", Run: func() string { return RenderFig12(Fig12(src, tAvailNanos)) }},
		{Name: "fig13", Run: func() string { return RenderFig13(Fig13(src, tAvailNanos)) }},
		{Name: "ablation-precision", Run: func() string { return RenderAblationPrecision(AblationPrecision()) }},
		{Name: "ablation-policy", Run: func() string { return RenderAblationPolicy(AblationPolicy(src, tAvailNanos)) }},
		{Name: "ablation-switch", Run: func() string { return RenderAblationSwitchDelay(AblationSwitchDelay(src, tAvailNanos)) }},
		{Name: "ablation-burstiness", Run: func() string { return RenderAblationBurstiness(AblationBurstiness(src, tAvailNanos)) }},
		{Name: "sched-matrix", Run: func() string { return RenderSchedMatrix(SchedMatrixWorkers(src, tAvailNanos, 1)) }},
		{Name: "scenario-matrix", Run: func() string { return RenderScenarioMatrix(ScenarioMatrixWorkers(ScenarioTAvailNanos, 1)) }},
	}
}

// RunAll executes experiments across a worker pool (workers ≤ 0 selects
// GOMAXPROCS) and returns results in input order. workers == 1 degenerates
// to a plain serial loop.
func RunAll(exps []Experiment, workers int) []Result {
	return RunMatrix(exps, workers, func(e Experiment) Result {
		start := time.Now()
		out := e.Run()
		return Result{Name: e.Name, Output: out, Wall: time.Since(start)}
	})
}

// RunMatrix fans fn over items across at most workers goroutines
// (workers ≤ 0 selects GOMAXPROCS), preserving input order in the result
// slice. Each item runs exactly once and fn must not share mutable state
// across items; under that contract the results are identical to a serial
// loop regardless of worker count.
func RunMatrix[T, R any](items []T, workers int, fn func(T) R) []R {
	out := make([]R, len(items))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i := range items {
			out[i] = fn(items[i])
		}
		return out
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(items[i])
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// TraceRunWith executes the canonical instrumented configuration — DeepLOB
// on two accelerators under the limited power envelope with WS+DS, the
// setting where every miss cause (eviction, deadline- and power-infeasible
// defers, late completions, DVFS retiming) is exercised — with a Tracer
// attached, and returns the run metrics alongside the tracer for attribution
// and event export (ltbench -trace). factory is the scheduling strategy (the
// ltbench -scheduler knob); nil keeps the default proactive PPW scheduler.
func TraceRunWith(src *scenario.Source, tAvailNanos int64, factory sched.Factory) (sim.Metrics, *sim.Tracer) {
	cfg, err := core.Configure(nn.NewDeepLOB(), 2, core.Limited,
		core.Options{WorkloadScheduling: true, DVFSScheduling: true, Scheduler: factory})
	if err != nil {
		panic(err) // static config; cannot fail
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	tr := sim.NewTracer()
	m := sim.RunWithOptions(src.Queries(tAvailNanos), sys, sim.WithProbe(tr))
	return m, tr
}
