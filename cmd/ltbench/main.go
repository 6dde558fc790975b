// Command ltbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ltbench                      # run everything, serially
//	ltbench -parallel 4          # fan experiments across 4 workers (0 = GOMAXPROCS)
//	ltbench -exp fig12           # one experiment: tableI…tableIII, fig8…fig13, ablations
//	ltbench -seconds 77          # paper workload length (≈ 40 000 ticks at seed 1)
//	ltbench -tavail 20ms         # per-query available time
//	ltbench -trace out.jsonl     # instrumented run: event log + miss attribution
//	ltbench -scheduler fcfs      # scheduling strategy for the -trace run
//	ltbench -exp NAME -json out.json  # archive sched-matrix, fanout, power-sweep, scenario-matrix or frontier
//	ltbench -cpuprofile cpu.out  # write a CPU profile (go tool pprof)
//	ltbench -memprofile mem.out  # write a heap profile at exit
//
// Output is identical for any -parallel value: experiments are independent
// and each one runs serially, so only the wall time changes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lighttrader/internal/bench"
	"lighttrader/internal/prof"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "ltbench:", err)
		os.Exit(1)
	}
}

// run takes no context: an experiment cannot stop part way, so an interrupt
// ends the process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ltbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: all, tableI, tableII, tableIII, fig8, fig9, fig11, fig12, fig13, ablations, one ablation-* name, or (with -json) an archived experiment")
	seconds := fs.Float64("seconds", 77, "paper workload length in seconds (77 s ≈ 40 000 ticks at seed 1)")
	tavail := fs.Duration("tavail", 20*time.Millisecond, "available time per query (t_avail)")
	seed := fs.Int64("seed", 1, "trace seed")
	parallel := fs.Int("parallel", 1, "experiment worker count (0 = GOMAXPROCS)")
	trace := fs.String("trace", "", "write an instrumented-run event log (JSONL) to this path")
	scheduler := fs.String("scheduler", "", "scheduling strategy for the -trace run: "+strings.Join(sched.SchedulerNames(), ", ")+" (default ppw)")
	jsonPath := fs.String("json", "", "run the archived experiment named by -exp ("+strings.Join(archiveNames(), ", ")+") and write its report as JSON to this path")
	profile := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := profile.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	src := bench.DefaultTraffic(*seconds, *seed)
	tAvail := tavail.Nanoseconds()

	start := time.Now()

	if *trace != "" {
		if err := writeTrace(stdout, src, tAvail, *trace, *scheduler); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}

	if *jsonPath != "" {
		// Archive run: one experiment, one file, nothing else regenerated.
		if err := writeArchive(stdout, *exp, src, tAvail, *parallel, *jsonPath); err != nil {
			return fmt.Errorf("json: %w", err)
		}
		return nil
	}

	selected := selectExperiments(bench.Experiments(src, tAvail), *exp)
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	results := bench.RunAll(selected, *parallel)
	for _, r := range results {
		fmt.Fprintln(stdout, r.Output)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", r.Name, r.Wall.Round(time.Millisecond))
	}

	var aggregate time.Duration
	fmt.Fprintf(stdout, "Per-experiment wall time (parallel=%d):\n", *parallel)
	for _, r := range results {
		fmt.Fprintf(stdout, "  %-22s %v\n", r.Name, r.Wall.Round(time.Millisecond))
		aggregate += r.Wall
	}
	fmt.Fprintf(stdout, "  %-22s %v (sum of experiments)\n", "aggregate", aggregate.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  %-22s %v\n", "total wall", time.Since(start).Round(time.Millisecond))
	return nil
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

// writeTrace runs the canonical instrumented configuration and writes its
// event log, printing the per-cause miss attribution summary.
func writeTrace(stdout io.Writer, src *scenario.Source, tAvail int64, path, scheduler string) error {
	start := time.Now()
	var factory sched.Factory
	if scheduler != "" {
		var err error
		if factory, err = sched.FactoryByName(scheduler); err != nil {
			return err
		}
	}
	m, tr := bench.TraceRunWith(src, tAvail, factory)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteJSONL(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Instrumented run: %s\n", m.System)
	fmt.Fprintf(stdout, "  total %d, responded %d (%.1f%%), dropped %d, late %d\n",
		m.Total, m.Responded, 100*m.ResponseRate, m.Dropped, m.Late)
	fmt.Fprint(stdout, indent(tr.Summary()))
	fmt.Fprintf(stdout, "  event log written to %s\n", path)
	fmt.Fprintf(stdout, "[trace completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// archives maps each archivable experiment to one run of it, returned both
// as the marshalled report (the BENCH_*.json payload) and the rendered table.
// Only sched-matrix replays the -seconds/-tavail/-seed traffic; the others
// are independent of those knobs: power-sweep replays bench.PowerTraffic (the
// high-rate regime, under a tight horizon, where power infeasibility fires),
// scenario-matrix its own registry of seeded byte streams at the scenario
// horizon budget, and frontier trains the zoo at its own archived scale.
var archives = []struct {
	name string
	run  func(src *scenario.Source, tAvail int64, parallel int) (data []byte, table string, err error)
}{
	{"sched-matrix", func(src *scenario.Source, tAvail int64, parallel int) ([]byte, string, error) {
		rows := bench.SchedMatrixWorkers(src, tAvail, parallel)
		data, err := bench.SchedMatrixJSON(src, tAvail, rows)
		return data, bench.RenderSchedMatrix(rows), err
	}},
	{"fanout", func(*scenario.Source, int64, int) ([]byte, string, error) {
		cfg := bench.FanoutConfig{}
		rows := bench.RunFanout(cfg)
		data, err := bench.FanoutJSON(cfg, rows)
		return data, bench.RenderFanout(rows), err
	}},
	{"power-sweep", func(*scenario.Source, int64, int) ([]byte, string, error) {
		src := bench.PowerTraffic()
		rows := bench.PowerSweep(src)
		data, err := bench.PowerSweepJSON(src, rows)
		return data, bench.RenderPowerSweep(rows), err
	}},
	{"scenario-matrix", func(_ *scenario.Source, _ int64, parallel int) ([]byte, string, error) {
		rows := bench.ScenarioMatrixWorkers(bench.ScenarioTAvailNanos, parallel)
		data, err := bench.ScenarioMatrixJSON(bench.ScenarioTAvailNanos, rows)
		return data, bench.RenderScenarioMatrix(rows), err
	}},
	{"frontier", func(*scenario.Source, int64, int) ([]byte, string, error) {
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
func writeArchive(stdout io.Writer, name string, src *scenario.Source, tAvail int64, parallel int, path string) error {
	for _, a := range archives {
		if !strings.EqualFold(a.name, name) {
			continue
		}
		start := time.Now()
		data, table, err := a.run(src, tAvail, parallel)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprint(stdout, table)
		fmt.Fprintf(stdout, "%s report written to %s\n", a.name, path)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", a.name, time.Since(start).Round(time.Millisecond))
		return nil
	}
	return fmt.Errorf("-exp %q has no JSON archive; choose one of %s", name, strings.Join(archiveNames(), ", "))
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
