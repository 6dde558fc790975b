package faultnet

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// udpPair returns a bound receiver and a sender dialled to it.
func udpPair(t *testing.T) (net.PacketConn, net.Conn) {
	t.Helper()
	recv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	send, err := net.Dial("udp", recv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })
	return recv, send
}

// runPacketTrial sends n numbered datagrams through a faulted wrapper and
// returns the delivered payload sequence.
func runPacketTrial(t *testing.T, f PacketFaults, n int) ([]byte, PacketStats) {
	t.Helper()
	recv, send := udpPair(t)
	fc := WrapPacketConn(recv, f)
	var got []byte
	buf := make([]byte, 64)
	// Loopback UDP preserves arrival order, so sending everything first and
	// draining once keeps the trial fast and the fault sequence identical.
	for i := 0; i < n; i++ {
		if _, err := send.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for {
		fc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		rn, _, err := fc.ReadFrom(buf)
		if err != nil {
			break
		}
		got = append(got, buf[:rn]...)
	}
	return got, fc.Stats()
}

func TestPacketFaultsDeterministic(t *testing.T) {
	f := PacketFaults{Seed: 42, Drop: 0.2, Duplicate: 0.2, Reorder: 0.2, Corrupt: 0.1}
	a, statsA := runPacketTrial(t, f, 200)
	b, statsB := runPacketTrial(t, f, 200)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different delivery:\n%v\n%v", a, b)
	}
	if statsA != statsB {
		t.Fatalf("same seed, different stats: %+v vs %+v", statsA, statsB)
	}
	if statsA.Dropped == 0 || statsA.Duplicated == 0 || statsA.Reordered == 0 || statsA.Corrupted == 0 {
		t.Fatalf("fault classes not exercised: %+v", statsA)
	}
}

func TestPacketFaultsDisabledIsPassthrough(t *testing.T) {
	recv, send := udpPair(t)
	fc := WrapPacketConn(recv, PacketFaults{Seed: 1, Drop: 1.0})
	fc.SetEnabled(false)
	if _, err := send.Write([]byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	fc.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err := fc.ReadFrom(buf)
	if err != nil || n != 1 || buf[0] != 0xAB {
		t.Fatalf("n=%d err=%v buf=%x", n, err, buf[:n])
	}
}

func TestPacketReorderFlushedOnTimeout(t *testing.T) {
	// Reorder=1 holds the first datagram; with no follow-up traffic the
	// deadline flush must deliver it rather than lose it.
	recv, send := udpPair(t)
	fc := WrapPacketConn(recv, PacketFaults{Seed: 7, Reorder: 1.0})
	if _, err := send.Write([]byte{0x01}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		fc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, _, err := fc.ReadFrom(buf)
		if err == nil {
			if n != 1 || buf[0] != 0x01 {
				t.Fatalf("n=%d buf=%x", n, buf[:n])
			}
			return
		}
	}
	t.Fatal("held datagram never flushed")
}

func TestConnInjectedReset(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	fc := WrapConn(client, ConnFaults{ResetAfter: 10})

	go func() {
		tmp := make([]byte, 64)
		for {
			if _, err := server.Read(tmp); err != nil {
				return
			}
		}
	}()
	var err error
	for i := 0; i < 8 && err == nil; i++ {
		_, err = fc.Write([]byte{0, 1, 2, 3})
	}
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v, want ErrInjectedReset", err)
	}
	// The wrapped conn is closed and stays unusable.
	if _, err := fc.Write([]byte{1}); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-reset write err = %v", err)
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-reset read err = %v", err)
	}
	if fc.Stats().Resets != 1 {
		t.Fatalf("stats %+v", fc.Stats())
	}
}

// Stats returns fault counters.
func (c *Conn) Stats() ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
