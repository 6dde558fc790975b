package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestRunServeParity drives -serve and reads its verdict: every symbol
// places the same orders at one lane as at the requested lane count.
func TestRunServeParity(t *testing.T) {
	for _, tc := range []struct {
		symbols int
		args    string
	}{
		{4, "-symbols 4 -accels 3 -ticks 1200"},
		{8, "-symbols 8 -accels 8 -ticks 2400 -power limited -ds"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), append([]string{"-serve"}, strings.Fields(tc.args)...), &out); err != nil {
				t.Fatalf("%v; output:\n%s", err, out.String())
			}
			if got := strings.Count(out.String(), " lanes: identical\n"); got != tc.symbols {
				t.Fatalf("%d identical parity lines, want %d; output:\n%s", got, tc.symbols, out.String())
			}
		})
	}
}

// TestRunRejectsUnknownPower: -power names one of the two envelopes or
// the run fails before it starts.
func TestRunRejectsUnknownPower(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-power", "bogus", "-scenario", "quiet"}, &out)
	if err == nil || !strings.Contains(err.Error(), "sufficient") || !strings.Contains(err.Error(), "limited") {
		t.Fatalf("run(-power bogus) = %v, want an error naming both envelopes", err)
	}
	if out.Len() != 0 {
		t.Fatalf("run printed before failing:\n%s", out.String())
	}
}

// TestRunSignalListenStopsOnCancel replays a short feed through the signal
// gateway, then cancels: run returns nil and leaves no goroutine behind.
func TestRunSignalListenStopsOnCancel(t *testing.T) {
	lc := testutil.StartLeakCheck()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-signal-listen", "127.0.0.1:0", "-symbols", "1", "-accels", "1", "-ticks", "300"}, &out)
	}()
	testutil.WaitFor(t, 10*time.Second, "the replay to finish", func() bool {
		return strings.Contains(out.String(), "gateway still serving")
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
	if !strings.Contains(out.String(), "served 300/300") {
		t.Fatalf("replay incomplete:\n%s", out.String())
	}
	lc.Verify(t, 2*time.Second)
}
