package sbe

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// The allocating decoder DecodePacketInto replaced, kept as the reference the
// parity tests and FuzzDecodePacketParity compare the production parser with:
// an independent implementation of the same wire rules, check for check, so
// the two must accept the same packets and fail with the same errors.

// decodePacketOracle parses a complete market-data datagram with the
// reference decoder.
func decodePacketOracle(buf []byte) (Packet, error) {
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
		msg, n, err := DecodeMessage(buf[off+msgSizeLen : off+size])
		if err != nil {
			return Packet{}, err
		}
		if n != size-msgSizeLen {
			return Packet{}, fmt.Errorf("sbe: message consumed %d of %d framed bytes", n, size-msgSizeLen)
		}
		pkt.Messages = append(pkt.Messages, msg)
		off += size
	}
	return pkt, nil
}

// DecodeMessage decodes one SBE message from buf, returning the message and
// the number of bytes consumed.
func DecodeMessage(buf []byte) (Message, int, error) {
	if len(buf) < messageHeaderLen {
		return Message{}, 0, ErrShortBuffer
	}
	blockLen := int(binary.LittleEndian.Uint16(buf[0:]))
	template := binary.LittleEndian.Uint16(buf[2:])
	schema := binary.LittleEndian.Uint16(buf[4:])
	if schema != SchemaID {
		return Message{}, 0, fmt.Errorf("%w: %d", ErrBadSchema, schema)
	}
	body := buf[messageHeaderLen:]
	if len(body) < blockLen {
		return Message{}, 0, ErrShortBuffer
	}
	n := messageHeaderLen + blockLen
	switch template {
	case TemplateIncrementalRefreshBook:
		// The declared block must cover at least this schema version's
		// fixed fields; a forged smaller block would let the fixed-offset
		// reads below run past the body.
		if blockLen < incrementalBlockLen {
			return Message{}, 0, fmt.Errorf("sbe: incremental block length %d too small", blockLen)
		}
		m := &IncrementalRefresh{TransactTime: binary.LittleEndian.Uint64(body[0:])}
		entries, g, err := decodeBookGroup(buf[n:])
		if err != nil {
			return Message{}, 0, err
		}
		m.Entries = entries
		return Message{Incremental: m}, n + g, nil
	case TemplateTradeSummary:
		if blockLen < tradeBlockLen {
			return Message{}, 0, fmt.Errorf("sbe: trade block length %d too small", blockLen)
		}
		m := &TradeSummary{
			TransactTime: binary.LittleEndian.Uint64(body[0:]),
			Price:        int64(binary.LittleEndian.Uint64(body[8:])),
			Qty:          int32(binary.LittleEndian.Uint32(body[16:])),
			SecurityID:   int32(binary.LittleEndian.Uint32(body[20:])),
			AggressorBid: body[24] == 1,
		}
		return Message{Trade: m}, n, nil
	case TemplateSnapshotFullRefresh:
		if blockLen < snapshotBlockLen {
			return Message{}, 0, fmt.Errorf("sbe: snapshot block length %d too small", blockLen)
		}
		m := &SnapshotFullRefresh{
			TransactTime:  binary.LittleEndian.Uint64(body[0:]),
			LastMsgSeqNum: binary.LittleEndian.Uint32(body[8:]),
			SecurityID:    int32(binary.LittleEndian.Uint32(body[12:])),
			RptSeq:        binary.LittleEndian.Uint32(body[16:]),
			TotNumReports: binary.LittleEndian.Uint32(body[20:]),
		}
		entries, g, err := decodeSnapshotGroup(buf[n:])
		if err != nil {
			return Message{}, 0, err
		}
		m.Entries = entries
		return Message{Snapshot: m}, n + g, nil
	default:
		return Message{}, 0, fmt.Errorf("%w: %d", ErrUnknownTemplate, template)
	}
}

func decodeBookGroup(buf []byte) ([]BookEntry, int, error) {
	if len(buf) < groupHeaderLen {
		return nil, 0, ErrShortBuffer
	}
	elemLen := int(binary.LittleEndian.Uint16(buf[0:]))
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	if elemLen < bookEntryLen {
		return nil, 0, fmt.Errorf("sbe: book group element length %d too small", elemLen)
	}
	need := groupHeaderLen + elemLen*count
	if len(buf) < need {
		return nil, 0, ErrBadGroupCount
	}
	entries := make([]BookEntry, count)
	off := groupHeaderLen
	for i := 0; i < count; i++ {
		e := buf[off:]
		entries[i] = BookEntry{
			Price:      int64(binary.LittleEndian.Uint64(e[0:])),
			Qty:        int32(binary.LittleEndian.Uint32(e[8:])),
			SecurityID: int32(binary.LittleEndian.Uint32(e[12:])),
			RptSeq:     binary.LittleEndian.Uint32(e[16:]),
			Level:      e[20],
			Action:     MDUpdateAction(e[21]),
			Entry:      EntryType(e[22]),
		}
		off += elemLen
	}
	return entries, need, nil
}

func decodeSnapshotGroup(buf []byte) ([]SnapshotEntry, int, error) {
	if len(buf) < groupHeaderLen {
		return nil, 0, ErrShortBuffer
	}
	elemLen := int(binary.LittleEndian.Uint16(buf[0:]))
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	if elemLen < snapshotEntryLen {
		return nil, 0, fmt.Errorf("sbe: snapshot group element length %d too small", elemLen)
	}
	need := groupHeaderLen + elemLen*count
	if len(buf) < need {
		return nil, 0, ErrBadGroupCount
	}
	entries := make([]SnapshotEntry, count)
	off := groupHeaderLen
	for i := 0; i < count; i++ {
		e := buf[off:]
		entries[i] = SnapshotEntry{
			Price: int64(binary.LittleEndian.Uint64(e[0:])),
			Qty:   int32(binary.LittleEndian.Uint32(e[8:])),
			Level: e[12],
			Entry: EntryType(e[13]),
		}
		off += elemLen
	}
	return entries, need, nil
}

// FuzzDecodeMessage holds the reference decoder itself to "never panics,
// never over-consumes": an oracle that crashed on some input would hide
// whatever the production parser does with it.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(AppendTrade(nil, &TradeSummary{Price: 1, Qty: 2}))
	f.Add(AppendIncremental(nil, &IncrementalRefresh{}))
	f.Add(AppendSnapshot(nil, &SnapshotFullRefresh{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if msg.Incremental == nil && msg.Trade == nil && msg.Snapshot == nil {
			t.Fatal("decoded message with no payload")
		}
	})
}
