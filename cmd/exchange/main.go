// Command exchange runs the wire-level exchange simulator: a market
// scenario's order flow played in real time on the venue's matching
// engine, SBE market data out over UDP and iLink-style binary order entry
// in over TCP. Any client that speaks the two protocols can trade against
// it; once the script ends the book stops moving but orders still match.
// examples/livefeed runs the same venue in-process for a self-contained
// tick-to-trade loop.
//
// Usage:
//
//	exchange -orders 127.0.0.1:9440 -feed 127.0.0.1:9441 -scenario trading-day -seed 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lighttrader/internal/scenario"
	"lighttrader/internal/venue"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "exchange:", err)
		os.Exit(1)
	}
}

// run serves until ctx is done.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exchange", flag.ContinueOnError)
	orders := fs.String("orders", "127.0.0.1:9440", "TCP order-entry listen address")
	feedAddr := fs.String("feed", "127.0.0.1:9441", "UDP market-data destination")
	name := fs.String("scenario", "trading-day", "market scenario to play: "+strings.Join(scenario.Names(), ", "))
	seed := fs.Int64("seed", 1, "scenario seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := scenario.ByName(*name, *seed)
	if err != nil {
		return err
	}

	srv, err := venue.NewServer(venue.ServerConfig{
		OrderAddr: *orders,
		FeedAddr:  *feedAddr,
		Scenario:  src,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "exchange up: orders %s, feed → %s, scenario %s seed %d\n", srv.OrderAddr(), *feedAddr, *name, *seed)

	if err := srv.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}
