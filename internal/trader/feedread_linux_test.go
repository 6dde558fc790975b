package trader

import (
	"bytes"
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"lighttrader/internal/serve"
)

// TestBatchReaderDrainsQueue pins the Linux batch reader itself: datagrams
// already queued come back feedBatch to a read, in order and byte for byte,
// the 60 kB one whole, and the rest of the queue on the next read.
func TestBatchReaderDrainsQueue(t *testing.T) {
	_, ticks := liveLoop(t, Config{}, serve.Config{Lanes: 0}, discardConn{})
	s := &sequencer{ticks: ticks}
	var sent [][]byte
	for i := 0; i < feedBatch+8; i++ {
		if i == feedBatch-1 {
			sent = append(sent, s.big())
			continue
		}
		sent = append(sent, s.next())
	}
	if n := len(sent[feedBatch-1]); n < 60_000 {
		t.Fatalf("big datagram is %d bytes, want at least 60 000", n)
	}
	conn, sender := udpFeed(t)
	for _, d := range sent {
		if _, err := sender.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	r, err := newFeedReader(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if _, ok := r.(*batchReader); !ok {
		t.Fatalf("a *net.UDPConn got a %T", r)
	}
	var got [][]byte
	for _, want := range []int{feedBatch, 8} {
		batch, err := r.read()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != want {
			t.Fatalf("read %d datagrams, want %d", len(batch), want)
		}
		for _, d := range batch {
			got = append(got, append([]byte(nil), d...))
		}
	}
	for i := range sent {
		if !bytes.Equal(got[i], sent[i]) {
			t.Fatalf("datagram %d: read %d bytes, sent %d, or their bytes differ", i, len(got[i]), len(sent[i]))
		}
	}
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestBatchReaderParksOnEmptySocket pins the wait: on an empty socket a
// read parks on the netpoller until the conn's deadline, which it returns
// as a timeout, instead of spinning on EAGAIN.
func TestBatchReaderParksOnEmptySocket(t *testing.T) {
	conn, _ := udpFeed(t)
	r, err := newFeedReader(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	wait := 3 * feedReadTick
	if err := conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
		t.Fatal(err)
	}
	start, cpu := time.Now(), cpuTime(t)
	batch, err := r.read()
	waited, used := time.Since(start), cpuTime(t)-cpu
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() || len(batch) != 0 {
		t.Fatalf("read on an empty socket returned %d datagrams and %v, want a timeout", len(batch), err)
	}
	if waited < wait-feedReadTick/2 || waited > wait+jitter {
		t.Errorf("read returned after %v, want the %v deadline", waited, wait)
	}
	if used > waited/4 {
		t.Errorf("the process used %v of CPU in a %v wait: the read spins instead of parking", used, waited)
	}
}
