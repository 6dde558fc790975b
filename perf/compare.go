package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles prints, for every workload × metric the two result files
// share, whether the second is ok, regressed or unresolved against the first,
// and reports whether any row regressed.
//
//   - modelled metrics must be identical: any difference is a regression;
//   - host metrics with a bound regress when the second file's median is worse
//     than the first's by more than the bound — unless the first file's own
//     runs spread wider than the bound, in which case the row is unresolved
//     (not unchanged), except when every run of the second is worse than every
//     run of the first;
//   - host metrics without a bound are shown for information.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  commit %s  seed %d\nB: %s  commit %s  seed %d\n",
		pathA, a.Provenance.Commit, a.Provenance.Seed, pathB, b.Provenance.Commit, b.Provenance.Seed)
	fmt.Fprintf(w, "%-16s %-30s %14s %14s %9s  %s\n", "workload", "metric", "A median", "B median", "change", "verdict")
	for _, wl := range workloads {
		ma, mb := a.Workloads[wl.name], b.Workloads[wl.name]
		names := make([]string, 0, len(ma))
		for name := range ma {
			if _, ok := mb[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			def, ok := findMetric(name)
			if !ok {
				continue
			}
			va, vb := ma[name].Values, mb[name].Values
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB := medianFloat(va), medianFloat(vb)
			change := 0.0
			if medA != 0 {
				change = (medB - medA) / medA
			}
			verdict := judge(def, va, vb)
			regressed = regressed || verdict == "regressed"
			fmt.Fprintf(w, "%-16s %-30s %14.4f %14.4f %+8.1f%%  %s\n", wl.name, name, medA, medB, 100*change, verdict)
		}
	}
	return regressed, nil
}

func judge(def metricDef, va, vb []float64) string {
	medA, medB := medianFloat(va), medianFloat(vb)
	if def.kind == "modelled" {
		if medA == medB {
			return "ok"
		}
		return "regressed"
	}
	if def.bound == 0 {
		return "info"
	}
	worse := medB - medA
	if def.better == "higher" {
		worse = -worse
	}
	limit := math.Max(def.bound*medA, def.slack)
	if worse <= limit {
		return "ok"
	}
	q1, q3 := quartiles(va)
	if q3-q1 <= limit {
		return "regressed"
	}
	// The baseline's own runs spread wider than the bound: only a clean
	// separation of the two samples counts.
	sa, sb := append([]float64(nil), va...), append([]float64(nil), vb...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	separated := sb[0] > sa[len(sa)-1]
	if def.better == "higher" {
		separated = sb[len(sb)-1] < sa[0]
	}
	if separated {
		return "regressed"
	}
	return "unresolved"
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
