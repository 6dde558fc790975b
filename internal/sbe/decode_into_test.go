package sbe

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// bookEntriesEqual compares entry slices treating nil and empty as equal (the
// parser sub-slices its arena, the oracle makes fresh slices).
func bookEntriesEqual(a, b []BookEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func snapEntriesEqual(a, b []SnapshotEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// packetsEquivalent reports whether two decoded packets carry identical
// data, ignoring backing-storage identity.
func packetsEquivalent(a, b Packet) bool {
	if a.SeqNum != b.SeqNum || a.SendingTime != b.SendingTime || len(a.Messages) != len(b.Messages) {
		return false
	}
	for i := range a.Messages {
		ma, mb := a.Messages[i], b.Messages[i]
		switch {
		case ma.Incremental != nil:
			if mb.Incremental == nil ||
				ma.Incremental.TransactTime != mb.Incremental.TransactTime ||
				!bookEntriesEqual(ma.Incremental.Entries, mb.Incremental.Entries) {
				return false
			}
		case ma.Trade != nil:
			if mb.Trade == nil || *ma.Trade != *mb.Trade {
				return false
			}
		case ma.Snapshot != nil:
			if mb.Snapshot == nil {
				return false
			}
			sa, sb := ma.Snapshot, mb.Snapshot
			if sa.TransactTime != sb.TransactTime ||
				sa.LastMsgSeqNum != sb.LastMsgSeqNum ||
				sa.SecurityID != sb.SecurityID ||
				sa.RptSeq != sb.RptSeq ||
				sa.TotNumReports != sb.TotNumReports ||
				!snapEntriesEqual(sa.Entries, sb.Entries) {
				return false
			}
		default:
			if mb.Incremental != nil || mb.Trade != nil || mb.Snapshot != nil {
				return false
			}
		}
	}
	return true
}

// errorsMatch requires the two decode paths to fail identically.
func errorsMatch(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// corpusPackets builds a varied set of valid datagrams.
func corpusPackets() [][]byte {
	rng := rand.New(rand.NewSource(42))
	out := [][]byte{
		// Empty packet: header only.
		AppendPacket(nil, 1, 11, nil),
		// Single-message packets of each kind, including zero-entry groups.
		AppendPacket(nil, 2, 22, []Message{{Incremental: &IncrementalRefresh{TransactTime: 5}}}),
		AppendPacket(nil, 3, 33, []Message{{Trade: &TradeSummary{
			TransactTime: 6, Price: 101, Qty: 2, SecurityID: 7, AggressorBid: true}}}),
		AppendPacket(nil, 4, 44, []Message{{Snapshot: &SnapshotFullRefresh{
			TransactTime: 7, LastMsgSeqNum: 3, SecurityID: 7, RptSeq: 9, TotNumReports: 1}}}),
	}

	// Random multi-message packets.
	for p := 0; p < 64; p++ {
		sendingTime := uint64(rng.Int63())
		var msgs []Message
		for m := 0; m < 1+rng.Intn(4); m++ {
			switch rng.Intn(3) {
			case 0:
				inc := &IncrementalRefresh{TransactTime: uint64(rng.Int63())}
				for e := 0; e < rng.Intn(6); e++ {
					inc.Entries = append(inc.Entries, BookEntry{
						Price: rng.Int63n(1 << 40), Qty: rng.Int31n(1000),
						SecurityID: rng.Int31n(8), RptSeq: rng.Uint32(),
						Level:  uint8(1 + rng.Intn(10)),
						Action: MDUpdateAction(rng.Intn(3)), Entry: EntryType(rng.Intn(3)),
					})
				}
				msgs = append(msgs, Message{Incremental: inc})
			case 1:
				msgs = append(msgs, Message{Trade: &TradeSummary{
					TransactTime: uint64(rng.Int63()), Price: rng.Int63n(1 << 40),
					Qty: rng.Int31n(1000), SecurityID: rng.Int31n(8),
					AggressorBid: rng.Intn(2) == 0,
				}})
			default:
				snap := &SnapshotFullRefresh{
					TransactTime: uint64(rng.Int63()), LastMsgSeqNum: rng.Uint32(),
					SecurityID: rng.Int31n(8), RptSeq: rng.Uint32(), TotNumReports: 1,
				}
				for e := 0; e < rng.Intn(8); e++ {
					snap.Entries = append(snap.Entries, SnapshotEntry{
						Price: rng.Int63n(1 << 40), Qty: rng.Int31n(1000),
						Level: uint8(1 + rng.Intn(10)), Entry: EntryType(rng.Intn(2)),
					})
				}
				msgs = append(msgs, Message{Snapshot: snap})
			}
		}
		out = append(out, AppendPacket(nil, uint32(p+10), sendingTime, msgs))
	}
	return out
}

// corruptions derives invalid inputs from a valid packet, hitting each
// decoder error branch.
func corruptions(valid []byte) [][]byte {
	var out [][]byte
	out = append(out, []byte{}, valid[:PacketHeaderLen-1])
	if len(valid) > PacketHeaderLen {
		out = append(out, valid[:PacketHeaderLen+1]) // short size prefix
		out = append(out, valid[:len(valid)-1])      // truncated message
		bad := append([]byte(nil), valid...)         // oversized message size
		binary.LittleEndian.PutUint16(bad[PacketHeaderLen:], uint16(len(bad)))
		out = append(out, bad)
		bad = append([]byte(nil), valid...) // size smaller than prefix
		binary.LittleEndian.PutUint16(bad[PacketHeaderLen:], 1)
		out = append(out, bad)
		if len(valid) >= PacketHeaderLen+msgSizeLen+messageHeaderLen {
			h := PacketHeaderLen + msgSizeLen
			bad = append([]byte(nil), valid...) // wrong schema
			binary.LittleEndian.PutUint16(bad[h+4:], SchemaID+1)
			out = append(out, bad)
			bad = append([]byte(nil), valid...) // unknown template
			binary.LittleEndian.PutUint16(bad[h+2:], 99)
			out = append(out, bad)
			bad = append([]byte(nil), valid...) // zero block length
			binary.LittleEndian.PutUint16(bad[h:], 0)
			out = append(out, bad)
		}
	}
	return out
}

// TestDecodeIntoParity pins DecodePacketInto byte-identical to the reference
// decoder over a varied valid corpus, with a single reused buffer.
func TestDecodeIntoParity(t *testing.T) {
	var pb PacketBuffer
	for i, buf := range corpusPackets() {
		want, wantErr := decodePacketOracle(buf)
		got, gotErr := DecodePacketInto(buf, &pb)
		if !errorsMatch(wantErr, gotErr) {
			t.Fatalf("packet %d: error mismatch: oracle %v, into %v", i, wantErr, gotErr)
		}
		if wantErr == nil && !packetsEquivalent(want, got) {
			t.Fatalf("packet %d: decode mismatch:\noracle %+v\ninto   %+v", i, want, got)
		}
	}
}

// TestDecodeIntoErrorParity pins the two decoders to identical errors on
// systematically corrupted inputs.
func TestDecodeIntoErrorParity(t *testing.T) {
	var pb PacketBuffer
	for i, valid := range corpusPackets() {
		for j, bad := range corruptions(valid) {
			_, wantErr := decodePacketOracle(bad)
			_, gotErr := DecodePacketInto(bad, &pb)
			if !errorsMatch(wantErr, gotErr) {
				t.Fatalf("packet %d corruption %d: oracle err %v, into err %v", i, j, wantErr, gotErr)
			}
		}
	}
}

// TestDecodeIntoReuse verifies a buffer survives interleaved packets and
// error returns without bleeding state between decodes.
func TestDecodeIntoReuse(t *testing.T) {
	var pb PacketBuffer
	corpus := corpusPackets()
	big, small := corpus[len(corpus)-1], corpus[0]
	for round := 0; round < 3; round++ {
		for _, buf := range [][]byte{big, small, {1, 2, 3}, big[:len(big)-1], small, big} {
			want, wantErr := decodePacketOracle(buf)
			got, gotErr := DecodePacketInto(buf, &pb)
			if !errorsMatch(wantErr, gotErr) {
				t.Fatalf("round %d: error mismatch on %d bytes: %v vs %v", round, len(buf), wantErr, gotErr)
			}
			if wantErr == nil && !packetsEquivalent(want, got) {
				t.Fatalf("round %d: mismatch after reuse", round)
			}
		}
	}
}

// TestDecodeIntoZeroAlloc is the allocation-regression gate for the wire
// layer: steady-state decode of a warm buffer must not allocate.
func TestDecodeIntoZeroAlloc(t *testing.T) {
	corpus := corpusPackets()
	var pb PacketBuffer
	for _, buf := range corpus {
		if _, err := DecodePacketInto(buf, &pb); err != nil {
			t.Fatal(err)
		}
	}
	for i, buf := range corpus {
		buf := buf
		if n := testing.AllocsPerRun(100, func() {
			if _, err := DecodePacketInto(buf, &pb); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("packet %d: %v allocs/op, want 0", i, n)
		}
	}
}

// TestCopyPacket holds the one copy primitive to its contract over the
// corpus: the copy carries the packet's data (as AppendPacket would put it
// back on the wire), owns every byte of it — rewriting the source's storage
// leaves it alone — and a buffer that has seen the stream copies without
// allocating. ClonePacket is the same copy into a buffer of its own.
func TestCopyPacket(t *testing.T) {
	corpus := corpusPackets()
	var src, dst PacketBuffer
	for i, buf := range corpus {
		pkt, err := DecodePacketInto(buf, &src)
		if err != nil {
			t.Fatal(err)
		}
		cp, clone := dst.CopyPacket(pkt), ClonePacket(pkt)
		// Scribble over everything pkt aliases.
		if _, err := DecodePacketInto(corpus[(i+len(corpus)/2)%len(corpus)], &src); err != nil {
			t.Fatal(err)
		}
		want, err := decodePacketOracle(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !packetsEquivalent(want, cp) || !packetsEquivalent(want, clone) {
			t.Fatalf("packet %d: copy differs from the packet once its source was reused:\nwant  %+v\ncopy  %+v\nclone %+v", i, want, cp, clone)
		}
		if got := AppendPacket(nil, cp.SeqNum, cp.SendingTime, cp.Messages); string(got) != string(buf) {
			t.Fatalf("packet %d: copy re-encodes to different bytes", i)
		}
	}
	for i, buf := range corpus {
		pkt, err := DecodePacketInto(buf, &src)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { dst.CopyPacket(pkt) }); n != 0 {
			t.Fatalf("packet %d: %v allocs per copy into a warm buffer, want 0", i, n)
		}
	}
}

// TestAppendPacketMatchesEncoder pins the packet framing to its definition
// — header, then each message encoder's output behind a size prefix that
// counts itself — over the decoded corpus, and AppendPacket zero-alloc when
// the destination is reused.
func TestAppendPacketMatchesEncoder(t *testing.T) {
	var pb PacketBuffer
	var dst []byte
	for i, buf := range corpusPackets() {
		pkt, err := DecodePacketInto(buf, &pb)
		if err != nil {
			t.Fatal(err)
		}
		want := binary.LittleEndian.AppendUint32(nil, pkt.SeqNum)
		want = binary.LittleEndian.AppendUint64(want, pkt.SendingTime)
		for _, m := range pkt.Messages {
			var body []byte
			switch {
			case m.Incremental != nil:
				body = AppendIncremental(nil, m.Incremental)
			case m.Trade != nil:
				body = AppendTrade(nil, m.Trade)
			case m.Snapshot != nil:
				body = AppendSnapshot(nil, m.Snapshot)
			}
			want = binary.LittleEndian.AppendUint16(want, uint16(msgSizeLen+len(body)))
			want = append(want, body...)
		}
		dst = AppendPacket(dst[:0], pkt.SeqNum, pkt.SendingTime, pkt.Messages)
		if string(dst) != string(want) || string(dst) != string(buf) {
			t.Fatalf("packet %d: AppendPacket output differs from the framed message encodings", i)
		}
	}
	// Warmed destination: re-encoding the last packet must not allocate.
	pkt, err := DecodePacketInto(corpusPackets()[10], &pb)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = AppendPacket(dst[:0], pkt.SeqNum, pkt.SendingTime, pkt.Messages)
	}); n != 0 {
		t.Fatalf("AppendPacket with warm dst: %v allocs/op, want 0", n)
	}
}

// FuzzDecodePacketParity is the differential fuzz target: on arbitrary
// bytes the reference decoder and the production parser must produce
// identical packets and identical errors, including across buffer reuse.
func FuzzDecodePacketParity(f *testing.F) {
	for _, buf := range corpusPackets()[:8] {
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add(make([]byte, PacketHeaderLen))
	f.Add(make([]byte, PacketHeaderLen+msgSizeLen))
	var pb PacketBuffer // deliberately reused across inputs
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodePacketOracle(data)
		got, gotErr := DecodePacketInto(data, &pb)
		if !errorsMatch(wantErr, gotErr) {
			t.Fatalf("error mismatch: oracle %v, into %v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if !packetsEquivalent(want, got) {
			t.Fatalf("decode mismatch:\noracle %+v\ninto   %+v", want, got)
		}
		// Round-trip through AppendPacket must re-decode equivalently.
		re := AppendPacket(nil, got.SeqNum, got.SendingTime, got.Messages)
		pkt2, err := decodePacketOracle(re)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if len(pkt2.Messages) != len(want.Messages) {
			t.Fatalf("message count changed: %d vs %d", len(pkt2.Messages), len(want.Messages))
		}
	})
}

func BenchmarkDecodePacket(b *testing.B) {
	buf := benchPacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePacket(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePacketInto(b *testing.B) {
	buf := benchPacket()
	var pb PacketBuffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePacketInto(buf, &pb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendPacket(b *testing.B) {
	var pb PacketBuffer
	pkt, err := DecodePacketInto(benchPacket(), &pb)
	if err != nil {
		b.Fatal(err)
	}
	var dst []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendPacket(dst[:0], pkt.SeqNum, pkt.SendingTime, pkt.Messages)
	}
}

// benchPacket is a representative feed datagram: one incremental refresh
// with four level updates plus a trade.
func benchPacket() []byte {
	inc := &IncrementalRefresh{TransactTime: 1_000_000}
	for i := 0; i < 4; i++ {
		inc.Entries = append(inc.Entries, BookEntry{
			Price: int64(450000 + i), Qty: int32(10 + i), SecurityID: 1,
			RptSeq: uint32(i + 1), Level: uint8(i + 1),
			Action: ActionChange, Entry: EntryType(i % 2),
		})
	}
	return AppendPacket(nil, 7, 1_000_000, []Message{
		{Incremental: inc},
		{Trade: &TradeSummary{TransactTime: 1_000_000, Price: 450001, Qty: 2, SecurityID: 1}},
	})
}
