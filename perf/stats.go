package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// nowNanos is the one clock every stamp in the benchmark is taken from.
func nowNanos() int64 { return time.Now().UnixNano() }

// quantile returns the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// dist summarises one latency sample.
type dist struct {
	n        int
	p50, p99 float64 // nanoseconds
}

func summarize(ns []int64) dist {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return dist{n: len(ns), p50: float64(quantile(ns, 0.50)), p99: float64(quantile(ns, 0.99))}
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// calmLow and calmHigh summarise what the rounds of a run measured for a
// metric where lower, or higher, is better: the mean of the better half of
// the rounds, the middle one included. What disturbs a round on this host (a
// neighbour's burst of a fraction of a second to some seconds) only ever
// makes it slower, and in a bad minute it reaches half the rounds of a run,
// so the median over rounds moves with the host where the better half stays
// with the program; its mean is steadier than any single round of it. A
// change to the program moves every round, and so moves this figure as it
// would the median.
func calmLow(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[:(len(s)+1)/2])
}

func calmHigh(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)/2:])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method), the rule
// the acceptance spread is defined by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// resetPeakRSS restarts the resident-set high-water mark, so that a process
// running several workloads reports each one's own peak. Best effort: where
// the kernel refuses, the mark keeps covering the whole process.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// provenance says what produced a result file: the envelope ROADMAP item 3
// asks every bench artefact to carry.
type provenance struct {
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Time       string `json:"time"`
}

func newProvenance(seed int64, seconds int) provenance {
	p := provenance{
		Commit: "unknown", Go: runtime.Version(), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
