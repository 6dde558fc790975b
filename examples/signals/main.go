// Signals: a terminal subscriber for the trade-signal gateway.
//
// Start the gateway side in one shell:
//
//	go run ./cmd/lighttrader -signal-listen 127.0.0.1:9000 -symbols 4
//
// then attach any number of subscribers:
//
//	go run ./examples/signals -addr 127.0.0.1:9000 -symbols SIM1,SIM2
//
// Each subscriber receives the conflated stream: always the newest signal
// per symbol, never a backlog. Seq gaps are the updates conflated away
// while this consumer (or its link) was slower than the publisher — the
// client counts them as GapDrops. Kill and restart the gateway to watch
// the reconnect ladder (capped exponential backoff) and the warm-start on
// resubscribe.
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
	"time"

	"lighttrader"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "signals:", err)
		os.Exit(1)
	}
}

// run subscribes until ctx is done, then prints the final counts.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("signals", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9000", "signal gateway address")
	symbols := fs.String("symbols", "SIM1", "comma-separated symbols to subscribe")
	quiet := fs.Bool("quiet", false, "suppress per-signal lines (stats only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cli := lighttrader.NewSignalClient(lighttrader.SignalClientConfig{
		Addr:    *addr,
		Symbols: strings.Split(*symbols, ","),
		OnSignal: func(sig lighttrader.TradeSignal) {
			if *quiet {
				return
			}
			fmt.Fprintf(stdout, "%-6s seq=%-6d action=%d conf=%.2f bid=%d ask=%d last=%d lag=%s\n",
				sig.Symbol, sig.Seq, sig.Action, sig.Confidence,
				sig.BidPrice, sig.AskPrice, sig.LastTrade,
				time.Duration(time.Now().UnixNano()-sig.PublishNanos).Round(time.Microsecond))
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})

	done := make(chan struct{})
	go func() { defer close(done); _ = cli.Run(ctx) }()

	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			st := cli.Stats()
			fmt.Fprintf(os.Stderr,
				"-- dials %d, sessions %d, received %d, gap drops %d, heartbeats %d\n",
				st.Dials, st.Sessions, st.SignalsReceived, st.GapDrops, st.HeartbeatsSent)
		case <-done:
			st := cli.Stats()
			fmt.Fprintf(stdout, "\nfinal: received %d signals, %d conflated away upstream\n",
				st.SignalsReceived, st.GapDrops)
			return nil
		}
	}
}
