package sbe

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// This file is the package's one parser and one copy: DecodePacketInto parses
// a datagram into caller-owned backing storage (a PacketBuffer) so the
// steady-state wire path performs zero heap allocations per packet, CopyPacket
// keeps a decoded packet in another such buffer, and DecodePacket and
// ClonePacket are the same two over a fresh buffer. The allocating decoder
// the parser replaced lives on in oracle_test.go, where the differential fuzz
// target and parity tests hold this one to the same packets and errors.

// msgKind tags one decoded message's payload union inside a PacketBuffer.
type msgKind uint8

const (
	kindIncremental msgKind = iota
	kindTrade
	kindSnapshot
)

// msgRef locates one decoded message's storage: the typed-slice index and,
// for group-bearing messages, the entry range inside the shared entry
// arrays. Pointers are materialised only after the whole packet has been
// decoded, when the backing slices can no longer grow.
type msgRef struct {
	kind   msgKind
	idx    int
	lo, hi int
}

// PacketBuffer owns reusable decode storage for DecodePacketInto. The zero
// value is ready to use; capacity grows to the high-water mark of the
// stream and is then reused, so steady-state decoding allocates nothing.
//
// A PacketBuffer is not safe for concurrent use, and a Packet decoded into
// it aliases its storage: the Packet (and everything reachable from it) is
// valid only until the next DecodePacketInto call with the same buffer.
type PacketBuffer struct {
	msgs        []Message
	refs        []msgRef
	incs        []IncrementalRefresh
	trades      []TradeSummary
	snaps       []SnapshotFullRefresh
	bookEntries []BookEntry
	snapEntries []SnapshotEntry
}

// reset empties the buffer for the next packet, keeping capacity.
func (pb *PacketBuffer) reset() {
	pb.msgs = pb.msgs[:0]
	pb.refs = pb.refs[:0]
	pb.incs = pb.incs[:0]
	pb.trades = pb.trades[:0]
	pb.snaps = pb.snaps[:0]
	pb.bookEntries = pb.bookEntries[:0]
	pb.snapEntries = pb.snapEntries[:0]
}

// DecodePacketInto parses a complete market-data datagram into pb's
// storage, returning a Packet that aliases pb. On error pb's contents are
// unspecified (but remain reusable).
func DecodePacketInto(buf []byte, pb *PacketBuffer) (Packet, error) {
	pb.reset()
	if len(buf) < PacketHeaderLen {
		return Packet{}, ErrShortBuffer
	}
	pkt := Packet{
		SeqNum:      binary.LittleEndian.Uint32(buf[0:]),
		SendingTime: binary.LittleEndian.Uint64(buf[4:]),
	}
	off := PacketHeaderLen
	for off < len(buf) {
		if len(buf)-off < msgSizeLen {
			return Packet{}, ErrShortBuffer
		}
		size := int(binary.LittleEndian.Uint16(buf[off:]))
		if size < msgSizeLen || off+size > len(buf) {
			return Packet{}, fmt.Errorf("sbe: bad message size %d at offset %d", size, off)
		}
		n, err := decodeMessageInto(buf[off+msgSizeLen:off+size], pb)
		if err != nil {
			return Packet{}, err
		}
		if n != size-msgSizeLen {
			return Packet{}, fmt.Errorf("sbe: message consumed %d of %d framed bytes", n, size-msgSizeLen)
		}
		off += size
	}
	pkt.Messages = pb.materialise()
	return pkt, nil
}

// materialise builds the Message list from refs. It runs only once the typed
// slices are at their final length, so the pointers and entry sub-slices it
// hands out are stable. A packet with no messages gets nil.
func (pb *PacketBuffer) materialise() []Message {
	for _, r := range pb.refs {
		switch r.kind {
		case kindIncremental:
			m := &pb.incs[r.idx]
			m.Entries = pb.bookEntries[r.lo:r.hi]
			pb.msgs = append(pb.msgs, Message{Incremental: m})
		case kindTrade:
			pb.msgs = append(pb.msgs, Message{Trade: &pb.trades[r.idx]})
		case kindSnapshot:
			m := &pb.snaps[r.idx]
			m.Entries = pb.snapEntries[r.lo:r.hi]
			pb.msgs = append(pb.msgs, Message{Snapshot: m})
		}
	}
	if len(pb.msgs) == 0 {
		return nil
	}
	return pb.msgs
}

// CopyPacket deep-copies pkt (which must not alias pb) into pb's storage and
// returns the copy, which aliases pb as a packet decoded into it would: valid
// until pb's next use, allocation-free once pb has seen the stream's largest
// packet. It is how a queueing runtime keeps a packet past its producer's window.
func (pb *PacketBuffer) CopyPacket(pkt Packet) Packet {
	pb.reset()
	for _, m := range pkt.Messages {
		switch {
		case m.Incremental != nil:
			lo := len(pb.bookEntries)
			pb.bookEntries = append(pb.bookEntries, m.Incremental.Entries...)
			pb.incs = append(pb.incs, *m.Incremental)
			pb.refs = append(pb.refs, msgRef{kind: kindIncremental, idx: len(pb.incs) - 1, lo: lo, hi: len(pb.bookEntries)})
		case m.Trade != nil:
			pb.trades = append(pb.trades, *m.Trade)
			pb.refs = append(pb.refs, msgRef{kind: kindTrade, idx: len(pb.trades) - 1})
		case m.Snapshot != nil:
			lo := len(pb.snapEntries)
			pb.snapEntries = append(pb.snapEntries, m.Snapshot.Entries...)
			pb.snaps = append(pb.snaps, *m.Snapshot)
			pb.refs = append(pb.refs, msgRef{kind: kindSnapshot, idx: len(pb.snaps) - 1, lo: lo, hi: len(pb.snapEntries)})
		}
	}
	pkt.Messages = pb.materialise()
	return pkt
}

// ClonePacket deep-copies a packet into storage of its own: CopyPacket with
// a fresh PacketBuffer.
func ClonePacket(pkt Packet) Packet {
	var pb PacketBuffer
	return pb.CopyPacket(pkt)
}

// decodeMessageInto decodes one SBE message from buf into pb, returning the
// number of bytes consumed.
func decodeMessageInto(buf []byte, pb *PacketBuffer) (int, error) {
	if len(buf) < messageHeaderLen {
		return 0, ErrShortBuffer
	}
	blockLen := int(binary.LittleEndian.Uint16(buf[0:]))
	template := binary.LittleEndian.Uint16(buf[2:])
	schema := binary.LittleEndian.Uint16(buf[4:])
	if schema != SchemaID {
		return 0, fmt.Errorf("%w: %d", ErrBadSchema, schema)
	}
	body := buf[messageHeaderLen:]
	if len(body) < blockLen {
		return 0, ErrShortBuffer
	}
	n := messageHeaderLen + blockLen
	switch template {
	case TemplateIncrementalRefreshBook:
		// The declared block must cover at least this schema version's
		// fixed fields; a forged smaller block would let the fixed-offset
		// reads below run past the body.
		if blockLen < incrementalBlockLen {
			return 0, fmt.Errorf("sbe: incremental block length %d too small", blockLen)
		}
		lo := len(pb.bookEntries)
		g, err := decodeBookEntries(buf[n:], pb)
		if err != nil {
			return 0, err
		}
		pb.incs = append(pb.incs, IncrementalRefresh{
			TransactTime: binary.LittleEndian.Uint64(body[0:]),
		})
		pb.refs = append(pb.refs, msgRef{
			kind: kindIncremental, idx: len(pb.incs) - 1,
			lo: lo, hi: len(pb.bookEntries),
		})
		return n + g, nil
	case TemplateTradeSummary:
		if blockLen < tradeBlockLen {
			return 0, fmt.Errorf("sbe: trade block length %d too small", blockLen)
		}
		pb.trades = append(pb.trades, TradeSummary{
			TransactTime: binary.LittleEndian.Uint64(body[0:]),
			Price:        int64(binary.LittleEndian.Uint64(body[8:])),
			Qty:          int32(binary.LittleEndian.Uint32(body[16:])),
			SecurityID:   int32(binary.LittleEndian.Uint32(body[20:])),
			AggressorBid: body[24] == 1,
		})
		pb.refs = append(pb.refs, msgRef{kind: kindTrade, idx: len(pb.trades) - 1})
		return n, nil
	case TemplateSnapshotFullRefresh:
		if blockLen < snapshotBlockLen {
			return 0, fmt.Errorf("sbe: snapshot block length %d too small", blockLen)
		}
		lo := len(pb.snapEntries)
		g, err := decodeSnapshotEntries(buf[n:], pb)
		if err != nil {
			return 0, err
		}
		pb.snaps = append(pb.snaps, SnapshotFullRefresh{
			TransactTime:  binary.LittleEndian.Uint64(body[0:]),
			LastMsgSeqNum: binary.LittleEndian.Uint32(body[8:]),
			SecurityID:    int32(binary.LittleEndian.Uint32(body[12:])),
			RptSeq:        binary.LittleEndian.Uint32(body[16:]),
			TotNumReports: binary.LittleEndian.Uint32(body[20:]),
		})
		pb.refs = append(pb.refs, msgRef{
			kind: kindSnapshot, idx: len(pb.snaps) - 1,
			lo: lo, hi: len(pb.snapEntries),
		})
		return n + g, nil
	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownTemplate, template)
	}
}

// decodeBookEntries appends the group's entries to pb.bookEntries.
func decodeBookEntries(buf []byte, pb *PacketBuffer) (int, error) {
	if len(buf) < groupHeaderLen {
		return 0, ErrShortBuffer
	}
	elemLen := int(binary.LittleEndian.Uint16(buf[0:]))
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	if elemLen < bookEntryLen {
		return 0, fmt.Errorf("sbe: book group element length %d too small", elemLen)
	}
	need := groupHeaderLen + elemLen*count
	if len(buf) < need {
		return 0, ErrBadGroupCount
	}
	pb.bookEntries = slices.Grow(pb.bookEntries, count)
	off := groupHeaderLen
	for i := 0; i < count; i++ {
		e := buf[off:]
		pb.bookEntries = append(pb.bookEntries, BookEntry{
			Price:      int64(binary.LittleEndian.Uint64(e[0:])),
			Qty:        int32(binary.LittleEndian.Uint32(e[8:])),
			SecurityID: int32(binary.LittleEndian.Uint32(e[12:])),
			RptSeq:     binary.LittleEndian.Uint32(e[16:]),
			Level:      e[20],
			Action:     MDUpdateAction(e[21]),
			Entry:      EntryType(e[22]),
		})
		off += elemLen
	}
	return need, nil
}

// decodeSnapshotEntries appends the group's entries to pb.snapEntries.
func decodeSnapshotEntries(buf []byte, pb *PacketBuffer) (int, error) {
	if len(buf) < groupHeaderLen {
		return 0, ErrShortBuffer
	}
	elemLen := int(binary.LittleEndian.Uint16(buf[0:]))
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	if elemLen < snapshotEntryLen {
		return 0, fmt.Errorf("sbe: snapshot group element length %d too small", elemLen)
	}
	need := groupHeaderLen + elemLen*count
	if len(buf) < need {
		return 0, ErrBadGroupCount
	}
	pb.snapEntries = slices.Grow(pb.snapEntries, count)
	off := groupHeaderLen
	for i := 0; i < count; i++ {
		e := buf[off:]
		pb.snapEntries = append(pb.snapEntries, SnapshotEntry{
			Price: int64(binary.LittleEndian.Uint64(e[0:])),
			Qty:   int32(binary.LittleEndian.Uint32(e[8:])),
			Level: e[12],
			Entry: EntryType(e[13]),
		})
		off += elemLen
	}
	return need, nil
}
