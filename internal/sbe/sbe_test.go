package sbe

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// decodeOne runs the parser over one bare message, framed as the only
// message of a packet (the parser itself rejects a message that does not
// consume exactly its frame).
func decodeOne(msg []byte) (Message, error) {
	buf := make([]byte, PacketHeaderLen, PacketHeaderLen+msgSizeLen+len(msg))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(msgSizeLen+len(msg)))
	pkt, err := DecodePacket(append(buf, msg...))
	if err != nil {
		return Message{}, err
	}
	return pkt.Messages[0], nil
}

func TestIncrementalRoundTrip(t *testing.T) {
	in := &IncrementalRefresh{
		TransactTime: 1234567890,
		Entries: []BookEntry{
			{Price: 450025, Qty: 10, SecurityID: 7, RptSeq: 1, Level: 1, Action: ActionNew, Entry: EntryBid},
			{Price: 450050, Qty: -3, SecurityID: 7, RptSeq: 2, Level: 2, Action: ActionDelete, Entry: EntryAsk},
		},
	}
	buf := AppendIncremental(nil, in)
	msg, err := decodeOne(buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Incremental == nil {
		t.Fatal("wrong message kind")
	}
	if !reflect.DeepEqual(msg.Incremental, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", msg.Incremental, in)
	}
}

func TestTradeRoundTrip(t *testing.T) {
	in := &TradeSummary{TransactTime: 99, Price: -450025, Qty: 42, SecurityID: 7, AggressorBid: true}
	buf := AppendTrade(nil, in)
	msg, err := decodeOne(buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Trade == nil || !reflect.DeepEqual(msg.Trade, in) {
		t.Fatalf("round trip mismatch: %+v", msg.Trade)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	in := &SnapshotFullRefresh{
		TransactTime: 5, LastMsgSeqNum: 10, SecurityID: 7, RptSeq: 3, TotNumReports: 1,
		Entries: []SnapshotEntry{
			{Price: 100, Qty: 1, Level: 1, Entry: EntryBid},
			{Price: 101, Qty: 2, Level: 1, Entry: EntryAsk},
		},
	}
	buf := AppendSnapshot(nil, in)
	msg, err := decodeOne(buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Snapshot == nil || !reflect.DeepEqual(msg.Snapshot, in) {
		t.Fatalf("round trip mismatch: %+v", msg.Snapshot)
	}
}

func TestEmptyGroup(t *testing.T) {
	in := &IncrementalRefresh{TransactTime: 1}
	buf := AppendIncremental(nil, in)
	msg, err := decodeOne(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Incremental.Entries) != 0 {
		t.Fatalf("got %d entries, want 0", len(msg.Incremental.Entries))
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decodeOne(nil); err != ErrShortBuffer {
		t.Fatalf("nil buffer: %v", err)
	}
	buf := AppendTrade(nil, &TradeSummary{})
	// Corrupt schema id.
	bad := append([]byte(nil), buf...)
	bad[4] = 0xff
	if _, err := decodeOne(bad); err == nil {
		t.Fatal("bad schema accepted")
	}
	// Corrupt template id.
	bad = append([]byte(nil), buf...)
	bad[2] = 0xee
	if _, err := decodeOne(bad); err == nil {
		t.Fatal("bad template accepted")
	}
	// Truncated body.
	if _, err := decodeOne(buf[:10]); err != ErrShortBuffer {
		t.Fatalf("truncated body: %v", err)
	}
	// Truncated group.
	inc := AppendIncremental(nil, &IncrementalRefresh{Entries: []BookEntry{{}, {}}})
	if _, err := decodeOne(inc[:len(inc)-5]); err == nil {
		t.Fatal("truncated group accepted")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	pkt, err := DecodePacket(AppendPacket(nil, 77, 123456, []Message{
		{Incremental: &IncrementalRefresh{
			TransactTime: 1,
			Entries:      []BookEntry{{Price: 10, Qty: 1, Level: 1, Action: ActionNew, Entry: EntryBid}},
		}},
		{Trade: &TradeSummary{TransactTime: 2, Price: 10, Qty: 1}},
		{Snapshot: &SnapshotFullRefresh{TransactTime: 3}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if pkt.SeqNum != 77 || pkt.SendingTime != 123456 {
		t.Fatalf("header = %+v", pkt)
	}
	if len(pkt.Messages) != 3 {
		t.Fatalf("got %d messages, want 3", len(pkt.Messages))
	}
	if pkt.Messages[0].Incremental == nil || pkt.Messages[1].Trade == nil || pkt.Messages[2].Snapshot == nil {
		t.Fatalf("message kinds wrong: %+v", pkt.Messages)
	}
}

func TestPacketErrors(t *testing.T) {
	if _, err := DecodePacket([]byte{1, 2}); err != ErrShortBuffer {
		t.Fatalf("short packet: %v", err)
	}
	buf := AppendPacket(nil, 1, 2, []Message{{Trade: &TradeSummary{}}})
	// Truncate mid-message.
	if _, err := DecodePacket(buf[:len(buf)-3]); err == nil {
		t.Fatal("truncated packet accepted")
	}
	// Corrupt frame size to zero.
	bad := append([]byte(nil), buf...)
	bad[PacketHeaderLen] = 0
	bad[PacketHeaderLen+1] = 0
	if _, err := DecodePacket(bad); err == nil {
		t.Fatal("zero frame size accepted")
	}
}

// TestQuickIncrementalRoundTrip fuzzes entry contents via testing/quick.
func TestQuickIncrementalRoundTrip(t *testing.T) {
	f := func(tt uint64, seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := make([]BookEntry, int(n)%20)
		for i := range entries {
			entries[i] = BookEntry{
				Price:      rng.Int63() - rng.Int63(),
				Qty:        int32(rng.Uint32()),
				SecurityID: int32(rng.Uint32()),
				RptSeq:     rng.Uint32(),
				Level:      uint8(rng.Intn(11)),
				Action:     MDUpdateAction(rng.Intn(3)),
				Entry:      EntryType(rng.Intn(3)),
			}
		}
		in := &IncrementalRefresh{TransactTime: tt, Entries: entries}
		msg, err := decodeOne(AppendIncremental(nil, in))
		if err != nil || msg.Incremental == nil {
			return false
		}
		if len(entries) == 0 {
			return len(msg.Incremental.Entries) == 0 && msg.Incremental.TransactTime == tt
		}
		return reflect.DeepEqual(msg.Incremental, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecodeIncremental(b *testing.B) {
	entries := make([]BookEntry, 8)
	for i := range entries {
		entries[i] = BookEntry{Price: int64(100 + i), Qty: 5, Level: uint8(i + 1)}
	}
	buf := AppendPacket(nil, 1, 1, []Message{{Incremental: &IncrementalRefresh{TransactTime: 1, Entries: entries}}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePacket(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestForgedBlockLengthRejected(t *testing.T) {
	// A message claiming a block length smaller than the template's fixed
	// fields must be rejected, not read out of bounds (found by fuzzing).
	for _, build := range []func() []byte{
		func() []byte { return AppendTrade(nil, &TradeSummary{Price: 1, Qty: 1}) },
		func() []byte { return AppendIncremental(nil, &IncrementalRefresh{TransactTime: 1}) },
		func() []byte { return AppendSnapshot(nil, &SnapshotFullRefresh{TransactTime: 1}) },
	} {
		buf := build()
		buf[0], buf[1] = 2, 0 // forge blockLength = 2
		if _, err := decodeOne(buf); err == nil {
			t.Fatal("forged block length accepted")
		}
	}
}
