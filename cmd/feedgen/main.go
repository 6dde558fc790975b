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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lighttrader"
	"lighttrader/internal/feed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "feedgen:", err)
		os.Exit(1)
	}
}

// run takes no context: a render cannot stop part way, so an interrupt ends
// the process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("feedgen", flag.ContinueOnError)
	out := fs.String("out", "ticks.lttr", "output trace file")
	seed := fs.Int64("seed", 1, "generator seed")
	scenarioName := fs.String("scenario", "trading-day", "market scenario to render: "+strings.Join(lighttrader.ScenarioNames(), ", "))
	stats := fs.Bool("stats", false, "print arrival statistics")
	if err := fs.Parse(args); err != nil {
		return err
	}

	src, err := lighttrader.ScenarioByName(*scenarioName, *seed)
	if err != nil {
		return err
	}
	trace := src.Ticks()
	symbol := src.Script().Instruments[0].Symbol
	for _, sp := range src.PhaseSpans() {
		fmt.Fprintf(stdout, "phase %-12s %8.3f s  %6d packets  %d withheld\n",
			sp.Name, float64(sp.EndNanos-sp.StartNanos)/1e9, sp.Ticks, sp.Withheld)
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := lighttrader.WriteTrace(f, symbol, trace); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d ticks (%s) to %s\n", len(trace), symbol, *out)

	if *stats {
		s := feed.ComputeStats(trace)
		fmt.Fprintf(stdout, "duration     %.1f s (mean %.0f ticks/s)\n", s.DurationSecs, s.MeanRate)
		fmt.Fprintf(stdout, "gaps         min %d ns, p50 %d ns, p99 %d ns, max %d ns\n",
			s.MinGapNanos, s.P50GapNanos, s.P99GapNanos, s.MaxGapNanos)
		fmt.Fprintf(stdout, "burstiness   CV² = %.1f (1 = Poisson)\n", s.CV2)
	}
	return nil
}
