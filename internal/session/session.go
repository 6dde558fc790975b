// Package session holds the connection-survival machinery shared by every
// wire client in the tree: the order-entry trader and the signal-gateway
// subscriber both reconnect through Run on the same capped exponential
// backoff ladder, and enforce the same three-interval keep-alive liveness
// rule. Every framed TCP read loop — theirs, the venue's and the signal
// gateway's — reads through the same Reader.
package session

import (
	"io"
	"math/rand"
	"sync"
	"time"
)

// Backoff is a capped exponential reconnect backoff with deterministic
// jitter: Next returns the current delay plus up to 50% random spread (so
// reconnect storms decorrelate), then doubles the delay up to the cap.
// Reset rewinds to the minimum after a session proves healthy. Safe for
// concurrent use.
type Backoff struct {
	mu  sync.Mutex
	min time.Duration
	max time.Duration
	cur time.Duration
	rng *rand.Rand
}

// NewBackoff builds a backoff ladder from min to max; non-positive bounds
// select 50ms and 2s. The seed makes the jitter sequence deterministic.
func NewBackoff(min, max time.Duration, seed int64) *Backoff {
	if min <= 0 {
		min = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	return &Backoff{min: min, max: max, cur: min, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the jittered current delay and advances the ladder.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.cur + time.Duration(b.rng.Float64()*float64(b.cur)/2)
	b.cur *= 2
	if b.cur > b.max {
		b.cur = b.max
	}
	return d
}

// Reset rewinds the ladder to the minimum delay.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.cur = b.min
	b.mu.Unlock()
}

// Liveness tracks peer keep-alive: Touch on every received byte, Expired
// reports whether the peer has been silent for three keep-alive intervals
// — the FIXP-style liveness rule both the order-entry client and the
// signal-gateway wire sessions enforce. Not safe for concurrent use; each
// session loop owns its own Liveness.
type Liveness struct {
	interval time.Duration
	lastRecv time.Time
}

// NewLiveness starts a liveness monitor as of now.
func NewLiveness(interval time.Duration, now time.Time) *Liveness {
	return &Liveness{interval: interval, lastRecv: now}
}

// Touch records peer activity.
func (l *Liveness) Touch(now time.Time) { l.lastRecv = now }

// Expired reports whether the peer has been silent for three intervals.
func (l *Liveness) Expired(now time.Time) bool {
	return now.Sub(l.lastRecv) > 3*l.interval
}

// readerMin is a Reader's first array: one read holds a whole frame of
// either wire protocol in the tree (iLink frames stop at 4 KiB, signal
// frames at 1 KiB).
const readerMin = 4 << 10

// Reader is a framed stream's read buffer: Read reads straight into the
// free tail of one array, and Keep moves what the frame decoder left
// unconsumed to its front. The array lives as long as the stream and
// doubles only when a pending frame fills it, so a read loop allocates
// nothing per read. The zero Reader is ready to use; it is not safe for
// concurrent use.
type Reader struct {
	buf  []byte
	fill int
}

// Read reads once from r and returns every buffered byte — what Keep
// retained followed by what arrived — with the count and error of the read.
// The bytes are valid until the next Keep; decode them before acting on err,
// since a peer's last frame may arrive together with its EOF.
func (b *Reader) Read(r io.Reader) ([]byte, int, error) {
	if b.fill == len(b.buf) {
		b.buf = append(b.buf, make([]byte, max(len(b.buf), readerMin))...)
	}
	n, err := r.Read(b.buf[b.fill:])
	b.fill += n
	return b.buf[:b.fill], n, err
}

// Keep retains rest, the unconsumed tail of what Read returned, at the front
// of the array for the next Read to append to.
func (b *Reader) Keep(rest []byte) { b.fill = copy(b.buf, rest) }
