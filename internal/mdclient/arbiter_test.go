package mdclient

import (
	"math/rand"
	"sort"
	"testing"

	"lighttrader/internal/sbe"
)

// mkPacket builds an incremental packet with the given sequence number.
func mkPacket(seq uint32) []byte {
	return sbe.AppendPacket(nil, seq, uint64(seq)*1000, []sbe.Message{{Incremental: &sbe.IncrementalRefresh{
		TransactTime: uint64(seq) * 1000,
		Entries:      []sbe.BookEntry{{Price: int64(seq), Qty: 1, Level: 1}},
	}}})
}

// mkSnapshot builds a snapshot packet asserting lastSeq.
func mkSnapshot(seq, lastSeq uint32) []byte {
	return sbe.AppendPacket(nil, seq, uint64(seq)*1000,
		[]sbe.Message{{Snapshot: &sbe.SnapshotFullRefresh{LastMsgSeqNum: lastSeq}}})
}

type collector struct {
	seqs []uint32
}

func (c *collector) deliver(p sbe.Packet) { c.seqs = append(c.seqs, p.SeqNum) }

func TestInOrderDelivery(t *testing.T) {
	var c collector
	a := New(c.deliver, 0)
	for seq := uint32(1); seq <= 5; seq++ {
		if err := a.OnDatagram(mkPacket(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.seqs) != 5 || c.seqs[0] != 1 || c.seqs[4] != 5 {
		t.Fatalf("delivered %v", c.seqs)
	}
	if s := a.Stats(); s.Delivered != 5 || s.Duplicates != 0 || s.Gaps != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestABDuplicatesSuppressed(t *testing.T) {
	var c collector
	a := New(c.deliver, 0)
	// Feed A and B both deliver every packet.
	for seq := uint32(1); seq <= 4; seq++ {
		_ = a.OnDatagram(mkPacket(seq))
		_ = a.OnDatagram(mkPacket(seq))
	}
	if len(c.seqs) != 4 {
		t.Fatalf("delivered %v", c.seqs)
	}
	if s := a.Stats(); s.Duplicates != 4 {
		t.Fatalf("stats %+v", s)
	}
}

func TestReorderWithinWindow(t *testing.T) {
	var c collector
	a := New(c.deliver, 8)
	_ = a.OnDatagram(mkPacket(1))
	_ = a.OnDatagram(mkPacket(3)) // ahead
	_ = a.OnDatagram(mkPacket(4)) // ahead
	_ = a.OnDatagram(mkPacket(2)) // fills the hole
	want := []uint32{1, 2, 3, 4}
	if len(c.seqs) != 4 {
		t.Fatalf("delivered %v", c.seqs)
	}
	for i, s := range want {
		if c.seqs[i] != s {
			t.Fatalf("delivered %v, want %v", c.seqs, want)
		}
	}
	if a.Recovering() {
		t.Fatal("reorder within window declared a gap")
	}
}

func TestGapTriggersRecovery(t *testing.T) {
	var c collector
	a := New(c.deliver, 4)
	_ = a.OnDatagram(mkPacket(1))
	// Packet 2 lost on both feeds; 3..6 arrive and overflow the window.
	for seq := uint32(3); seq <= 6; seq++ {
		_ = a.OnDatagram(mkPacket(seq))
	}
	if !a.Recovering() {
		t.Fatal("gap not declared")
	}
	if s := a.Stats(); s.Gaps != 1 {
		t.Fatalf("stats %+v", s)
	}
	// Snapshot arrives asserting state through seq 6.
	_ = a.OnDatagram(mkSnapshot(7, 6))
	if a.Recovering() {
		t.Fatal("recovery did not complete")
	}
	// Stream resumes at 7.
	_ = a.OnDatagram(mkPacket(7))
	if last := c.seqs[len(c.seqs)-1]; last != 7 {
		t.Fatalf("delivered %v", c.seqs)
	}
	if s := a.Stats(); s.Recoveries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSnapshotRecoveryFlushesBuffer(t *testing.T) {
	var c collector
	a := New(c.deliver, 4)
	_ = a.OnDatagram(mkPacket(1))
	for seq := uint32(3); seq <= 6; seq++ {
		_ = a.OnDatagram(mkPacket(seq))
	}
	// Snapshot asserts state through 4; buffered 5 and 6 must flush.
	_ = a.OnDatagram(mkSnapshot(99, 4))
	want := []uint32{1, 99, 5, 6}
	if len(c.seqs) != len(want) {
		t.Fatalf("delivered %v, want %v", c.seqs, want)
	}
	for i := range want {
		if c.seqs[i] != want[i] {
			t.Fatalf("delivered %v, want %v", c.seqs, want)
		}
	}
}

func TestPeriodicSnapshotWhileSynced(t *testing.T) {
	var c collector
	a := New(c.deliver, 0)
	_ = a.OnDatagram(mkPacket(1))
	// In-sequence snapshot is delivered like any packet.
	_ = a.OnDatagram(mkSnapshot(2, 1))
	_ = a.OnDatagram(mkPacket(3))
	if len(c.seqs) != 3 {
		t.Fatalf("delivered %v", c.seqs)
	}
	// Out-of-sequence periodic snapshot is a duplicate refresh.
	_ = a.OnDatagram(mkSnapshot(2, 1))
	if len(c.seqs) != 3 || a.Stats().Duplicates != 1 {
		t.Fatalf("delivered %v stats %+v", c.seqs, a.Stats())
	}
}

func TestSnapshotResyncAfterTailLoss(t *testing.T) {
	// Packets 2..4 are lost and nothing follows to overflow the reorder
	// window, so no gap is ever declared; the next periodic snapshot proves
	// the miss and must resynchronise the stream instead of being dropped
	// as a duplicate refresh.
	var c collector
	a := New(c.deliver, 16)
	_ = a.OnDatagram(mkPacket(1))
	_ = a.OnDatagram(mkSnapshot(5, 4))
	if a.Recovering() {
		t.Fatal("snapshot resync left the arbiter recovering")
	}
	want := []uint32{1, 5}
	if len(c.seqs) != 2 || c.seqs[0] != want[0] || c.seqs[1] != want[1] {
		t.Fatalf("delivered %v, want %v", c.seqs, want)
	}
	if s := a.Stats(); s.Recoveries != 1 {
		t.Fatalf("stats %+v", s)
	}
	// The snapshot consumed its own slot on the shared channel (its seq is
	// LastMsgSeqNum+1), so the stream resumes one past it; late replays of
	// the lost range — including the snapshot's slot — are duplicates.
	_ = a.OnDatagram(mkPacket(6))
	_ = a.OnDatagram(mkPacket(5))
	_ = a.OnDatagram(mkPacket(3))
	if last := c.seqs[len(c.seqs)-1]; last != 6 {
		t.Fatalf("delivered %v", c.seqs)
	}
	if s := a.Stats(); s.Duplicates != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBadDatagram(t *testing.T) {
	a := New(func(sbe.Packet) {}, 0)
	if err := a.OnDatagram([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestLossyShuffledFeeds drives the arbiter with two lossy, locally
// shuffled copies of a long stream plus periodic snapshots, and checks
// every sequence is delivered exactly once and in order.
func TestLossyShuffledFeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 2000
	var c collector
	a := New(c.deliver, 16)

	type datagram struct {
		at  int
		buf []byte
	}
	var inbox []datagram
	for seq := uint32(1); seq <= n; seq++ {
		for feedIdx := 0; feedIdx < 2; feedIdx++ {
			if rng.Float64() < 0.20 {
				continue // 20% loss per feed (independent)
			}
			jitter := rng.Intn(6) // bounded reordering
			inbox = append(inbox, datagram{at: int(seq)*10 + jitter + feedIdx, buf: mkPacket(seq)})
		}
		if seq%100 == 0 { // periodic snapshot channel
			inbox = append(inbox, datagram{at: int(seq)*10 + 8, buf: mkSnapshot(1_000_000+seq, seq)})
		}
	}
	sort.Slice(inbox, func(i, j int) bool { return inbox[i].at < inbox[j].at })
	for _, d := range inbox {
		if err := a.OnDatagram(d.buf); err != nil {
			t.Fatal(err)
		}
	}
	// Every delivered incremental sequence must be strictly increasing.
	var prev uint32
	delivered := map[uint32]bool{}
	for _, s := range c.seqs {
		if s >= 1_000_000 {
			continue // snapshot packets
		}
		if s <= prev {
			t.Fatalf("out-of-order or duplicate delivery: %d after %d", s, prev)
		}
		prev = s
		delivered[s] = true
	}
	// With periodic snapshots the stream must make it to the end.
	if prev < n-110 {
		t.Fatalf("stream stalled at %d of %d", prev, n)
	}
	if a.Stats().Duplicates == 0 {
		t.Fatal("no duplicates suppressed despite dual feeds")
	}
}
