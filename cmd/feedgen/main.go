// Command feedgen renders a named market scenario (trading day, flash
// crash, halt/resume, ...) as a tick trace and writes it to a binary trace
// file for exactly re-runnable back-tests.
//
// Usage:
//
//	feedgen -out ticks.lttr -seed 7
//	feedgen -out crash.lttr -scenario flash-crash -seed 3
//	feedgen -out ticks.lttr -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lighttrader"
	"lighttrader/internal/feed"
)

func main() {
	out := flag.String("out", "ticks.lttr", "output trace file")
	seed := flag.Int64("seed", 1, "generator seed")
	scenarioName := flag.String("scenario", "trading-day", "market scenario to render: "+strings.Join(lighttrader.ScenarioNames(), ", "))
	stats := flag.Bool("stats", false, "print arrival statistics")
	flag.Parse()

	src, err := lighttrader.ScenarioByName(*scenarioName, *seed)
	if err != nil {
		fatal(err)
	}
	trace := src.Ticks()
	symbol := src.Script().Instruments[0].Symbol
	for _, sp := range src.PhaseSpans() {
		fmt.Printf("phase %-12s %8.3f s  %6d packets  %d withheld\n",
			sp.Name, float64(sp.EndNanos-sp.StartNanos)/1e9, sp.Ticks, sp.Withheld)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := lighttrader.WriteTrace(f, symbol, trace); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d ticks (%s) to %s\n", len(trace), symbol, *out)

	if *stats {
		s := feed.ComputeStats(trace)
		fmt.Printf("duration     %.1f s (mean %.0f ticks/s)\n", s.DurationSecs, s.MeanRate)
		fmt.Printf("gaps         min %d ns, p50 %d ns, p99 %d ns, max %d ns\n",
			s.MinGapNanos, s.P50GapNanos, s.P99GapNanos, s.MaxGapNanos)
		fmt.Printf("burstiness   CV² = %.1f (1 = Poisson)\n", s.CV2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "feedgen:", err)
	os.Exit(1)
}
