package session

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// TestBackoffLadder checks the shape of the ladder: every delay stays
// within [cur, 1.5*cur], the unjittered base doubles to the cap, and
// Reset rewinds to the minimum.
func TestBackoffLadder(t *testing.T) {
	min, max := 50*time.Millisecond, 2*time.Second
	b := NewBackoff(min, max, 1)
	base := min
	for i := 0; i < 10; i++ {
		d := b.Next()
		if d < base || d > base+base/2 {
			t.Fatalf("step %d: delay %v outside [%v, %v]", i, d, base, base+base/2)
		}
		base *= 2
		if base > max {
			base = max
		}
	}
	b.Reset()
	if d := b.Next(); d < min || d > min+min/2 {
		t.Fatalf("post-Reset delay %v outside [%v, %v]", d, min, min+min/2)
	}
}

// TestBackoffDefaults pins the zero-value bounds (50ms, 2s) and that the
// jitter sequence is deterministic per seed.
func TestBackoffDefaults(t *testing.T) {
	a, b := NewBackoff(0, 0, 7), NewBackoff(0, 0, 7)
	for i := 0; i < 8; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("step %d: same seed diverged: %v != %v", i, da, db)
		}
		if da < 50*time.Millisecond || da > 3*time.Second {
			t.Fatalf("step %d: delay %v outside default bounds", i, da)
		}
	}
}

// TestLivenessThreeIntervals pins the FIXP-style rule: silence is
// tolerated through three keep-alive intervals, expiry strictly after.
func TestLivenessThreeIntervals(t *testing.T) {
	start := time.Unix(0, 0)
	l := NewLiveness(100*time.Millisecond, start)
	if l.Expired(start.Add(300 * time.Millisecond)) {
		t.Fatal("expired at exactly three intervals")
	}
	if !l.Expired(start.Add(301 * time.Millisecond)) {
		t.Fatal("not expired past three intervals")
	}
	l.Touch(start.Add(301 * time.Millisecond))
	if l.Expired(start.Add(600 * time.Millisecond)) {
		t.Fatal("expired despite Touch")
	}
}

// chunks is a stream that arrives in the pieces given, then ends.
type chunks [][]byte

func (c *chunks) Read(p []byte) (int, error) {
	if len(*c) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*c)[0])
	if (*c)[0] = (*c)[0][n:]; len((*c)[0]) == 0 {
		*c = (*c)[1:]
	}
	return n, nil
}

// TestReader: each Read returns what Keep retained followed by what
// arrived, a frame larger than the array grows it instead of stalling the
// stream, and a loop that keeps its unconsumed tail reads with no
// allocation once the array exists.
func TestReader(t *testing.T) {
	var rb Reader
	in := chunks{[]byte("abc"), []byte("defg")}
	buf, n, err := rb.Read(&in)
	if string(buf) != "abc" || n != 3 || err != nil {
		t.Fatalf("first read: %q, %d, %v", buf, n, err)
	}
	rb.Keep(buf[1:])
	if buf, n, err = rb.Read(&in); string(buf) != "bcdefg" || n != 4 || err != nil {
		t.Fatalf("read after Keep: %q, %d, %v", buf, n, err)
	}
	rb.Keep(buf[len(buf):])
	if buf, n, err = rb.Read(&in); len(buf) != 0 || n != 0 || err != io.EOF {
		t.Fatalf("read at EOF: %q, %d, %v", buf, n, err)
	}

	big := bytes.Repeat([]byte{7}, 3*readerMin+5)
	in = chunks{big}
	rb = Reader{}
	for len(in) > 0 {
		buf, _, _ = rb.Read(&in)
		rb.Keep(buf) // an unfinished frame: nothing consumed
	}
	if !bytes.Equal(buf, big) {
		t.Fatalf("a %d-byte frame read back as %d bytes", len(big), len(buf))
	}

	frame := bytes.Repeat([]byte{1}, 100)
	parts := make(chunks, 2)
	if allocs := testing.AllocsPerRun(100, func() {
		parts[0], parts[1] = frame[:40], frame[40:]
		in = parts
		for len(in) > 0 {
			buf, _, _ = rb.Read(&in)
			if len(buf) >= len(frame) {
				buf = buf[len(frame):]
			}
			rb.Keep(buf)
		}
	}); allocs != 0 {
		t.Fatalf("a read loop allocates %v per frame, want 0", allocs)
	}
}

// TestRunReconnects drives Run through a refused dial, a healthy session and
// a session that cancels the context: each attempt is served on its own
// connection and logged, and only the healthy session rewinds the ladder.
func TestRunReconnects(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := NewBackoff(time.Millisecond, time.Second, 1)
	var conns []net.Conn
	dial := func(context.Context) (net.Conn, error) {
		if len(conns) == 0 {
			conns = append(conns, nil) // the refused attempt
			return nil, errors.New("refused")
		}
		c, _ := net.Pipe()
		conns = append(conns, c)
		return c, nil
	}
	var served []net.Conn
	serve := func(_ context.Context, c net.Conn) (bool, error) {
		served = append(served, c)
		if len(conns) == 3 {
			cancel()
		}
		return len(conns) == 2, io.EOF
	}
	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	if err := Run(ctx, "x:", dial, b, serve, logf); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	want := []string{"x: dial: refused", "x: session ended: EOF", "x: session ended: EOF"}
	if fmt.Sprint(logs) != fmt.Sprint(want) {
		t.Fatalf("logs %q, want %q", logs, want)
	}
	if fmt.Sprint(served) != fmt.Sprint(conns[1:]) {
		t.Fatalf("served %v, want the dialled %v", served, conns[1:])
	}
	// 1 ms → 2 ms after the refusal, rewound to 1 ms by the healthy session,
	// then two more steps: 4 ms. Without the rewind it would be 8 ms.
	if b.cur != 4*time.Millisecond {
		t.Fatalf("ladder at %v, want 4ms", b.cur)
	}
}
