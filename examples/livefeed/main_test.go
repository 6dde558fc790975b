package main

import (
	"bytes"
	"context"
	"regexp"
	"strconv"
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

// TestRunTradesOverLoopback trades for a moment against the in-process
// venue: the session is established, market data arrives, and run returns
// only after every goroutine it started has.
func TestRunTradesOverLoopback(t *testing.T) {
	lc := testutil.StartLeakCheck()
	var out syncBuffer
	if err := run(context.Background(), []string{"-dur", "400ms"}, &out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`session done: (\d+) datagrams`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no session summary:\n%s", out.String())
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Fatalf("no datagrams received:\n%s", out.String())
	}
	if !regexp.MustCompile(`session: \d+ dials, [1-9]\d* established`).MatchString(out.String()) {
		t.Fatalf("session never established:\n%s", out.String())
	}
	lc.Verify(t, 2*time.Second)
}
