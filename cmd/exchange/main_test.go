package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"lighttrader/internal/testutil"
)

// TestRunServesUntilCancel brings the venue up on loopback, waits for its
// market data, then cancels: run returns nil and leaves no goroutine
// behind.
func TestRunServesUntilCancel(t *testing.T) {
	lc := testutil.StartLeakCheck()
	feed, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-orders", "127.0.0.1:0", "-feed", feed.LocalAddr().String(), "-scenario", "quiet"}, &out)
	}()
	_ = feed.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := feed.ReadFrom(make([]byte, 1500)); err != nil {
		t.Fatalf("no market data from the venue: %v", err)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !strings.HasPrefix(out.String(), "exchange up: orders 127.0.0.1:") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	feed.Close()
	lc.Verify(t, 2*time.Second)
}
