// Command ltbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ltbench                      # run everything, serially
//	ltbench -parallel 4          # fan experiments across 4 workers (0 = GOMAXPROCS)
//	ltbench -exp fig12           # one experiment: tableI…tableIII, fig8…fig13, ablations
//	ltbench -ticks 40000         # trace length
//	ltbench -tavail 20ms         # per-query available time
//	ltbench -trace out.jsonl     # instrumented run: event log + miss attribution
//	ltbench -scheduler fcfs      # scheduling strategy for the -trace run
//	ltbench -exp NAME -json out.json  # archive sched-matrix, fanout, power-sweep, scenario-matrix or frontier
//	ltbench -workers 4           # GEMM worker-pool width (0 = GOMAXPROCS)
//	ltbench -blocksize 256       # GEMM k-panel cache block size
//	ltbench -cpuprofile cpu.out  # write a CPU profile (go tool pprof)
//	ltbench -memprofile mem.out  # write a heap profile at exit
//
// Output is identical for any -parallel value: experiments are independent
// and each one runs serially, so only the wall time changes. The -workers
// and -blocksize knobs tune the tensor compute backend (see DESIGN.md,
// "Compute backend"); they change wall time only, never results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lighttrader/internal/bench"
	"lighttrader/internal/prof"
	"lighttrader/internal/sched"
	"lighttrader/internal/tensor"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, tableI, tableII, tableIII, fig8, fig9, fig11, fig12, fig13, ablations, one ablation-* name, or (with -json) an archived experiment")
	ticks := flag.Int("ticks", 40000, "trace length in ticks")
	tavail := flag.Duration("tavail", 20*time.Millisecond, "available time per query (t_avail)")
	seed := flag.Int64("seed", 1, "trace seed")
	parallel := flag.Int("parallel", 1, "experiment worker count (0 = GOMAXPROCS)")
	trace := flag.String("trace", "", "write an instrumented-run event log (JSONL) to this path")
	scheduler := flag.String("scheduler", "", "scheduling strategy for the -trace run: "+strings.Join(sched.SchedulerNames(), ", ")+" (default ppw)")
	jsonPath := flag.String("json", "", "run the archived experiment named by -exp ("+strings.Join(archiveNames(), ", ")+") and write its report as JSON to this path")
	workers := flag.Int("workers", 0, "GEMM worker-pool width for large multiplies (0 = GOMAXPROCS)")
	blocksize := flag.Int("blocksize", tensor.BlockSize(), "GEMM k-panel cache block size (min 8)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ltbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	tensor.SetWorkers(*workers)
	tensor.SetBlockSize(*blocksize)

	tc := bench.DefaultTraffic()
	tc.Ticks = *ticks
	tc.TAvailNanos = tavail.Nanoseconds()
	tc.Seed = *seed

	start := time.Now()

	if *trace != "" {
		if err := writeTrace(tc, *trace, *scheduler); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
	}

	if *jsonPath != "" {
		// Archive run: one experiment, one file, nothing else regenerated.
		if err := writeArchive(*exp, tc, *parallel, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	selected := selectExperiments(bench.Experiments(tc), *exp)
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *parallel != 1 && len(selected) > 1 && needsTraffic(selected) {
		// Warm the shared query cache once so concurrent workers don't
		// each generate the same trace on first access.
		tc.Queries()
	}

	results := bench.RunAll(selected, *parallel)
	for _, r := range results {
		fmt.Println(r.Output)
		fmt.Printf("[%s completed in %v]\n\n", r.Name, r.Wall.Round(time.Millisecond))
	}

	var aggregate time.Duration
	fmt.Printf("Per-experiment wall time (parallel=%d):\n", *parallel)
	for _, r := range results {
		fmt.Printf("  %-22s %v\n", r.Name, r.Wall.Round(time.Millisecond))
		aggregate += r.Wall
	}
	fmt.Printf("  %-22s %v (sum of experiments)\n", "aggregate", aggregate.Round(time.Millisecond))
	fmt.Printf("  %-22s %v\n", "total wall", time.Since(start).Round(time.Millisecond))
}

// selectExperiments filters the suite by the -exp flag; "ablations" keeps
// the historical behaviour of running every ablation-* experiment.
func selectExperiments(all []bench.Experiment, exp string) []bench.Experiment {
	if strings.EqualFold(exp, "all") {
		return all
	}
	var sel []bench.Experiment
	for _, e := range all {
		if strings.EqualFold(e.Name, exp) ||
			(strings.EqualFold(exp, "ablations") && strings.HasPrefix(e.Name, "ablation-")) {
			sel = append(sel, e)
		}
	}
	return sel
}

// needsTraffic reports whether any selected experiment replays the tick
// trace (the tables and fig9 are traffic-independent).
func needsTraffic(sel []bench.Experiment) bool {
	for _, e := range sel {
		switch e.Name {
		case "tableI", "tableII", "tableIII", "fig9", "ablation-precision":
		default:
			return true
		}
	}
	return false
}

// writeTrace runs the canonical instrumented configuration and writes its
// event log, printing the per-cause miss attribution summary.
func writeTrace(tc bench.TrafficConfig, path, scheduler string) error {
	start := time.Now()
	var factory sched.Factory
	if scheduler != "" {
		var err error
		if factory, err = sched.FactoryByName(scheduler); err != nil {
			return err
		}
	}
	m, tr := bench.TraceRunWith(tc, factory)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteJSONL(f); err != nil {
		return err
	}
	fmt.Printf("Instrumented run: %s\n", m.System)
	fmt.Printf("  total %d, responded %d (%.1f%%), dropped %d, late %d\n",
		m.Total, m.Responded, 100*m.ResponseRate, m.Dropped, m.Late)
	fmt.Print(indent(tr.Summary()))
	fmt.Printf("  event log written to %s\n", path)
	fmt.Printf("[trace completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// archives maps each archivable experiment to one run of it, returned both
// as the marshalled report (the BENCH_*.json payload) and the rendered table.
// Only sched-matrix replays the -ticks/-tavail/-seed traffic; the others are
// independent of those knobs: power-sweep replays bench.PowerTraffic (the
// tight-horizon, high-rate regime where power infeasibility actually fires),
// scenario-matrix its own registry of seeded byte streams at the scenario
// horizon budget, and frontier trains the zoo at its own archived scale.
var archives = []struct {
	name string
	run  func(tc bench.TrafficConfig, parallel int) (data []byte, table string, err error)
}{
	{"sched-matrix", func(tc bench.TrafficConfig, parallel int) ([]byte, string, error) {
		rows := bench.SchedMatrixWorkers(tc, parallel)
		data, err := bench.SchedMatrixJSON(tc, rows)
		return data, bench.RenderSchedMatrix(rows), err
	}},
	{"fanout", func(bench.TrafficConfig, int) ([]byte, string, error) {
		cfg := bench.FanoutConfig{}
		rows := bench.RunFanout(cfg)
		data, err := bench.FanoutJSON(cfg, rows)
		return data, bench.RenderFanout(rows), err
	}},
	{"power-sweep", func(bench.TrafficConfig, int) ([]byte, string, error) {
		tc := bench.PowerTraffic()
		rows := bench.PowerSweep(tc)
		data, err := bench.PowerSweepJSON(tc, rows)
		return data, bench.RenderPowerSweep(rows), err
	}},
	{"scenario-matrix", func(_ bench.TrafficConfig, parallel int) ([]byte, string, error) {
		rows := bench.ScenarioMatrixWorkers(bench.ScenarioTAvailNanos, parallel)
		data, err := bench.ScenarioMatrixJSON(bench.ScenarioTAvailNanos, rows)
		return data, bench.RenderScenarioMatrix(rows), err
	}},
	{"frontier", func(bench.TrafficConfig, int) ([]byte, string, error) {
		rep := bench.FrontierSweep(bench.DefaultFrontierConfig())
		data, err := bench.FrontierJSON(rep)
		return data, bench.RenderFrontier(rep), err
	}},
}

func archiveNames() []string {
	names := make([]string, len(archives))
	for i, a := range archives {
		names[i] = a.name
	}
	return names
}

// writeArchive runs the named archivable experiment once, writes its report
// to path and prints its table.
func writeArchive(name string, tc bench.TrafficConfig, parallel int, path string) error {
	for _, a := range archives {
		if !strings.EqualFold(a.name, name) {
			continue
		}
		start := time.Now()
		data, table, err := a.run(tc, parallel)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Print(table)
		fmt.Printf("%s report written to %s\n", a.name, path)
		fmt.Printf("[%s completed in %v]\n\n", a.name, time.Since(start).Round(time.Millisecond))
		return nil
	}
	return fmt.Errorf("-exp %q has no JSON archive; choose one of %s", name, strings.Join(archiveNames(), ", "))
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
