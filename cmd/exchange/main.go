// Command exchange runs the wire-level exchange simulator: SBE market data
// out over UDP, iLink-style binary order entry in over TCP, with a
// background noise trader keeping the book alive. Any client that speaks
// the two protocols can trade against it; examples/livefeed runs the same
// venue in-process for a self-contained tick-to-trade loop.
//
// Usage:
//
//	exchange -orders 127.0.0.1:9440 -feed 127.0.0.1:9441 -noise 1ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

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
	symbol := fs.String("symbol", "ESU6", "instrument symbol")
	secID := fs.Int("security", 1, "security id")
	mid := fs.Int64("mid", 450000, "initial mid price")
	noise := fs.Duration("noise", time.Millisecond, "mean background order-flow interval (0 disables)")
	seed := fs.Int64("seed", 1, "noise-trader seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, err := venue.NewServer(venue.ServerConfig{
		OrderAddr:     *orders,
		FeedAddr:      *feedAddr,
		SecurityID:    int32(*secID),
		Symbol:        *symbol,
		MidPrice:      *mid,
		Depth:         100,
		NoiseInterval: *noise,
		NoiseSeed:     *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "exchange up: orders %s, feed → %s, symbol %s\n", srv.OrderAddr(), *feedAddr, *symbol)

	if err := srv.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}
