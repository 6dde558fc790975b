package main

import (
	"bytes"
	"context"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"lighttrader"
	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/testutil"
)

// syncBuffer is a bytes.Buffer run may write from its goroutines while the
// test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunReceivesSignals subscribes to an in-test gateway that publishes
// on SIM1 until a signal line for SIM1 shows; after cancel run returns,
// counts it, and leaves no goroutine behind.
func TestRunReceivesSignals(t *testing.T) {
	lc := testutil.StartLeakCheck()
	gw, err := lighttrader.NewSignalGateway(lighttrader.SignalGatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	pub, err := gw.Register("SIM1", 1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gwCtx, stopGW := context.WithCancel(context.Background())
	gwDone := make(chan struct{})
	go func() { defer close(gwDone); _ = gw.Serve(gwCtx, ln) }()
	defer stopGW()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, []string{"-addr", ln.Addr().String(), "-symbols", "SIM1"}, &out) }()

	i := int64(0)
	testutil.WaitFor(t, 5*time.Second, "a SIM1 signal", func() bool {
		i++
		pub.Publish(core.SignalEvent{Action: nn.Up, Confidence: 0.9, BidPrice: 100 + i, AskPrice: 101 + i, TickNanos: i})
		return strings.Contains(out.String(), "SIM1   seq=")
	})
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !regexp.MustCompile(`final: received [1-9]\d* signals`).MatchString(out.String()) {
		t.Fatalf("final count missed the signal:\n%s", out.String())
	}
	stopGW()
	gw.Close()
	<-gwDone
	lc.Verify(t, 2*time.Second)
}
