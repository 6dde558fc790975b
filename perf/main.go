// Command perf is the repository's benchmark: it times datagrams from a UDP
// socket through trader.MultiTrader to the order frame on a TCP socket, and
// replays scenarios through the simulator and the inline serving runtime.
// See README.md for the metrics, the workloads and how to read the trace.
//
//	perf -workload wire-stub -seed 1 -seconds 20 -trace 0    one workload, JSON on the last line
//	perf -seed 1 -out out/a.json [-trace 1] [-runs 3]         all workloads into a result file
//	perf -compare a.json b.json                               verdict per workload × metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that its deferred calls (the spinners'
// stop among them) run on every path out.
func run() int {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", runSeconds, "measuring time of one run of one workload")
	trace := flag.Int("trace", 0, "1 adds the traced hot phase and the staged layer timings and prints the per-layer metrics")
	out := flag.String("out", "", "result file to write (JSON with provenance)")
	runs := flag.Int("runs", 1, "runs per workload recorded in the result file")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	spec := flag.Bool("spec", false, "print BENCHMARK.json from the metric tables and exit")
	spinCPU := flag.Int("spin", -1, "internal: be the spinner of this CPU for the process whose id follows")
	flag.Parse()

	if *spinCPU >= 0 {
		spin(*spinCPU, flag.Arg(0))
		return 0
	}

	if *spec {
		data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			return fatal(err)
		}
		fmt.Println(string(data))
		return 0
	}

	if *compare {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return fatal(fmt.Errorf("need -seconds ≥ 1, -runs ≥ 1 and -trace 0 or 1"))
	}
	defer keepAwake()()

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	file := resultFile{Provenance: newProvenance(*seed, *seconds), Workloads: map[string]map[string]fileMetric{}}
	allCorrect := true
	var last *result
	for _, name := range names {
		for run := 0; run < *runs; run++ {
			res, err := runWorkload(name, runOpts{seed: *seed, seconds: float64(*seconds),
				trace: *trace == 1, outDir: traceDir(), rounds: defaultRounds})
			if err != nil {
				return fatal(err)
			}
			printResult(res, *trace == 1)
			file.add(res)
			allCorrect = allCorrect && res.correct()
			last = res
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			return fatal(err)
		}
	}
	if len(names) == 1 {
		// The driver's contract: one JSON object on the last line.
		line, err := json.Marshal(driverLine(last, *trace == 1))
		if err != nil {
			return fatal(err)
		}
		fmt.Println(string(line))
	}
	if !allCorrect && len(names) > 1 {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "perf:", err)
	return 2
}

// traceDir is where span files go: out/ beside the benchmark's sources when
// run from the repository root, else out/ under the working directory.
func traceDir() string {
	if st, err := os.Stat("perf"); err == nil && st.IsDir() {
		return filepath.Join("perf", "out")
	}
	return "out"
}

func runWorkload(name string, o runOpts) (*result, error) {
	resetPeakRSS()
	if spec, ok := wireSpecs[name]; ok {
		return runWire(spec, o)
	}
	if name == "replay-modelled" {
		return runReplay(o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// shown returns the metric list a run prints: the end-to-end metrics with
// tracing off, the per-layer metrics with it on.
func shown(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func printResult(res *result, trace bool) {
	fmt.Printf("== %s  (attempted %d, failed %d, correct %v)\n", res.workload, res.attempted, res.failed, res.correct())
	for _, m := range shown(trace) {
		line := fmt.Sprintf("  %-30s %16.4f %-8s %-8s", m.name, res.metrics[m.name], m.unit, m.kind)
		if n, ok := res.samples[m.name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		if m.moves != "" {
			line += "  → " + m.moves
		}
		fmt.Println(line)
	}
	if !trace {
		// The hot tail and the paced figures are end-to-end in nature; show
		// them with their sample counts even though they carry no bound.
		for _, d := range []struct{ name, count string }{
			{"t2t_hot_p99_us", "t2t_hot_p99_us"}, {"t2t_paced_p50_us", "t2t_paced_p99_us"},
			{"t2t_paced_p99_us", "t2t_paced_p99_us"}, {"order_miss_share", "t2t_paced_p99_us"},
		} {
			if v, ok := res.metrics[d.name]; ok {
				m, _ := findMetric(d.name)
				fmt.Printf("  %-30s %16.4f %-8s %s  n=%d (no bound)\n", d.name, v, m.unit, m.kind, res.samples[d.count])
			}
		}
	}
	for _, p := range res.problems {
		fmt.Println("  CHECK FAILED:", p)
	}
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverOutput struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

func driverLine(res *result, trace bool) driverOutput {
	o := driverOutput{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]lineMetric{}}
	for _, m := range shown(trace) {
		o.Metrics[m.name] = lineMetric{Value: res.metrics[m.name], Unit: m.unit}
	}
	return o
}

// fileMetric is one metric of one workload in a result file: a value per run.
type fileMetric struct {
	Values []float64 `json:"values"`
	Unit   string    `json:"unit"`
	Kind   string    `json:"kind"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Provenance provenance                       `json:"provenance"`
	Workloads  map[string]map[string]fileMetric `json:"workloads"`
	Problems   []string                         `json:"problems,omitempty"`
}

func (f *resultFile) add(res *result) {
	w := f.Workloads[res.workload]
	if w == nil {
		w = map[string]fileMetric{}
		f.Workloads[res.workload] = w
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		def, ok := findMetric(name)
		if !ok {
			continue
		}
		fm := w[name]
		fm.Unit, fm.Kind = def.unit, def.kind
		fm.Values = append(fm.Values, res.metrics[name])
		w[name] = fm
	}
	for _, p := range res.problems {
		f.Problems = append(f.Problems, res.workload+": "+p)
	}
}

func (f *resultFile) write(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
