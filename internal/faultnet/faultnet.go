// Package faultnet injects deterministic, seeded network faults into
// net.PacketConn and net.Conn so chaos runs over the live wire path are
// reproducible. The datagram wrapper models what lossy redundant UDP feeds
// deliver — drops, duplicates, bounded reordering, bit corruption — and the
// stream wrapper models a sick order-entry link: an abrupt reset once a
// byte budget has crossed it. Datagram decisions come from a caller-seeded
// PRNG and the reset from a byte count, so a failing chaos test replays
// exactly.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
)

// ErrInjectedReset is returned by a faulted Conn once its byte budget is
// exhausted; the underlying connection is closed abruptly, as a mid-session
// network reset would.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// PacketFaults selects datagram fault probabilities, each in [0,1].
type PacketFaults struct {
	// Seed makes the fault sequence deterministic.
	Seed int64
	// Drop is the probability an inbound datagram is silently discarded.
	Drop float64
	// Duplicate is the probability a datagram is delivered twice.
	Duplicate float64
	// Reorder is the probability a datagram is held back and delivered
	// after the next one (bounded single-packet reordering).
	Reorder float64
	// Corrupt is the probability one byte of the datagram is flipped.
	Corrupt float64
}

// PacketStats counts injected datagram faults.
type PacketStats struct {
	Received   int // datagrams read from the wrapped conn
	Delivered  int // datagrams handed to the caller (incl. duplicates)
	Dropped    int
	Duplicated int
	Reordered  int
	Corrupted  int
}

type datagram struct {
	buf  []byte
	addr net.Addr
}

// PacketConn wraps a net.PacketConn, applying faults on the read side.
// Deadlines, LocalAddr, WriteTo, and Close pass through. It is safe for a
// single reader; concurrent ReadFrom calls are serialised.
type PacketConn struct {
	net.PacketConn

	mu      sync.Mutex
	rng     *rand.Rand
	faults  PacketFaults
	enabled bool
	queue   []datagram // duplicates and released reorder holds
	held    *datagram  // datagram delayed behind the next arrival
	stats   PacketStats
}

// WrapPacketConn applies seeded faults to inner's read path. Faults start
// enabled; SetEnabled(false) turns the wrapper into a passthrough (chaos
// tests use this to quiesce).
func WrapPacketConn(inner net.PacketConn, f PacketFaults) *PacketConn {
	return &PacketConn{
		PacketConn: inner,
		rng:        rand.New(rand.NewSource(f.Seed)),
		faults:     f,
		enabled:    true,
	}
}

// SetEnabled switches fault injection on or off. Disabling releases any
// held datagram on the next read.
func (c *PacketConn) SetEnabled(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enabled = on
}

// Stats returns fault counters.
func (c *PacketConn) Stats() PacketStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ReadFrom delivers the next datagram after fault arbitration. Held
// (reordered) datagrams are flushed when a read deadline expires, so
// bounded reordering never becomes loss at quiesce.
func (c *PacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		c.mu.Lock()
		if len(c.queue) > 0 {
			d := c.queue[0]
			c.queue = c.queue[1:]
			c.stats.Delivered++
			c.mu.Unlock()
			return copy(p, d.buf), d.addr, nil
		}
		if !c.enabled && c.held != nil {
			d := c.held
			c.held = nil
			c.stats.Delivered++
			c.mu.Unlock()
			return copy(p, d.buf), d.addr, nil
		}
		c.mu.Unlock()

		n, addr, err := c.PacketConn.ReadFrom(p)
		if err != nil {
			// Flush a held datagram instead of surfacing a timeout, so the
			// reorder hold cannot outlive the stream.
			c.mu.Lock()
			if c.held != nil {
				d := c.held
				c.held = nil
				c.stats.Delivered++
				c.mu.Unlock()
				return copy(p, d.buf), d.addr, nil
			}
			c.mu.Unlock()
			return n, addr, err
		}

		c.mu.Lock()
		c.stats.Received++
		if !c.enabled {
			c.stats.Delivered++
			c.mu.Unlock()
			return n, addr, nil
		}
		roll := c.rng.Float64()
		switch {
		case roll < c.faults.Drop:
			c.stats.Dropped++
			c.mu.Unlock()
			continue
		case roll < c.faults.Drop+c.faults.Reorder && c.held == nil:
			c.stats.Reordered++
			c.held = &datagram{buf: append([]byte(nil), p[:n]...), addr: addr}
			c.mu.Unlock()
			continue
		}
		// Release a held datagram behind this one.
		if c.held != nil {
			c.queue = append(c.queue, *c.held)
			c.held = nil
		}
		if c.rng.Float64() < c.faults.Duplicate {
			c.stats.Duplicated++
			c.queue = append(c.queue, datagram{buf: append([]byte(nil), p[:n]...), addr: addr})
		}
		if n > 0 && c.rng.Float64() < c.faults.Corrupt {
			c.stats.Corrupted++
			p[c.rng.Intn(n)] ^= 0xFF
		}
		c.stats.Delivered++
		c.mu.Unlock()
		return n, addr, nil
	}
}

// ConnFaults selects stream fault behaviour.
type ConnFaults struct {
	// ResetAfter > 0 abruptly closes the connection once that many bytes
	// have crossed it (reads + writes combined); subsequent operations
	// return ErrInjectedReset.
	ResetAfter int64
}

// ConnStats counts injected stream faults.
type ConnStats struct {
	BytesRead    int64
	BytesWritten int64
	Resets       int
}

// Conn wraps a net.Conn with fault injection on both directions.
type Conn struct {
	net.Conn

	mu     sync.Mutex
	faults ConnFaults
	moved  int64 // bytes read + written
	reset  bool
	stats  ConnStats
}

// WrapConn applies stream faults to inner.
func WrapConn(inner net.Conn, f ConnFaults) *Conn {
	return &Conn{Conn: inner, faults: f}
}

// tripped reports (and applies) the reset budget; callers hold no locks.
func (c *Conn) tripped(add int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reset {
		return true
	}
	c.moved += add
	if c.faults.ResetAfter > 0 && c.moved >= c.faults.ResetAfter {
		c.reset = true
		c.stats.Resets++
		c.Conn.Close()
		return true
	}
	return false
}

// Read passes through until the reset budget trips.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.reset {
		c.mu.Unlock()
		return 0, ErrInjectedReset
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.stats.BytesRead += int64(n)
	c.mu.Unlock()
	if c.tripped(int64(n)) && err == nil {
		return n, ErrInjectedReset
	}
	return n, err
}

// Write passes through until the reset budget trips. The write that trips
// it reports the injected error with its count, as a torn TCP session
// would.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.reset {
		c.mu.Unlock()
		return 0, ErrInjectedReset
	}
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.stats.BytesWritten += int64(n)
	c.mu.Unlock()
	if c.tripped(int64(n)) && err == nil {
		return n, ErrInjectedReset
	}
	return n, err
}

// String describes the configured faults (for test logs).
func (f PacketFaults) String() string {
	return fmt.Sprintf("seed=%d drop=%.2f dup=%.2f reorder=%.2f corrupt=%.2f",
		f.Seed, f.Drop, f.Duplicate, f.Reorder, f.Corrupt)
}
