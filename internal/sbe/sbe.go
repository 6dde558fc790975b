// Package sbe implements a Simple Binary Encoding (SBE) style market-data
// protocol modelled on CME MDP 3.0, the wire format named in the paper
// (§III-A: "decodes the packet data coded by the market data protocol, such
// as simple binary encoding (SBE) used in Chicago Mercantile Exchange").
//
// The schema is a fixed-layout little-endian subset sufficient for the
// LightTrader pipeline: incremental book refresh, trade summary, and full
// snapshot messages, carried in packets with the MDP binary packet header
// (sequence number + sending time) and per-message size framing.
package sbe

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Schema constants.
const (
	SchemaID      = 1
	SchemaVersion = 9
)

// Template IDs (values chosen to echo MDP 3.0's well-known templates).
const (
	TemplateIncrementalRefreshBook = 32
	TemplateTradeSummary           = 42
	TemplateSnapshotFullRefresh    = 52
)

// MDUpdateAction enumerates book update actions.
type MDUpdateAction uint8

const (
	ActionNew MDUpdateAction = iota
	ActionChange
	ActionDelete
)

// String implements fmt.Stringer.
func (a MDUpdateAction) String() string {
	switch a {
	case ActionNew:
		return "new"
	case ActionChange:
		return "change"
	case ActionDelete:
		return "delete"
	default:
		return fmt.Sprintf("MDUpdateAction(%d)", uint8(a))
	}
}

// EntryType enumerates sides/kinds of a market-data entry.
type EntryType uint8

const (
	EntryBid EntryType = iota
	EntryAsk
	EntryTrade
)

// Errors returned by the decoder.
var (
	ErrShortBuffer     = errors.New("sbe: short buffer")
	ErrBadSchema       = errors.New("sbe: unknown schema id")
	ErrUnknownTemplate = errors.New("sbe: unknown template id")
	ErrBadGroupCount   = errors.New("sbe: group count exceeds buffer")
)

// messageHeader is the standard SBE message header.
// Layout: blockLength uint16 | templateID uint16 | schemaID uint16 | version uint16.
const messageHeaderLen = 8

// BookEntry is one repeating-group element of an incremental refresh.
type BookEntry struct {
	Price      int64
	Qty        int32
	SecurityID int32
	RptSeq     uint32
	Level      uint8 // 1-based book level
	Action     MDUpdateAction
	Entry      EntryType
}

const bookEntryLen = 8 + 4 + 4 + 4 + 1 + 1 + 1 + 1 // +1 pad

// IncrementalRefresh is the MDIncrementalRefreshBook message: a batch of
// book updates sharing one exchange transact time.
type IncrementalRefresh struct {
	TransactTime uint64 // exchange timestamp, nanoseconds
	Entries      []BookEntry
}

const incrementalBlockLen = 8 // TransactTime only; entries are a group

// TradeSummary reports an execution.
type TradeSummary struct {
	TransactTime uint64
	Price        int64
	Qty          int32
	SecurityID   int32
	AggressorBid bool // true when the aggressor was the buyer
}

const tradeBlockLen = 8 + 8 + 4 + 4 + 1 + 3 // +3 pad

// SnapshotEntry is one level of a full snapshot.
type SnapshotEntry struct {
	Price int64
	Qty   int32
	Level uint8
	Entry EntryType
}

const snapshotEntryLen = 8 + 4 + 1 + 1 + 2 // +2 pad

// SnapshotFullRefresh carries the complete visible book for recovery and
// late-join subscribers.
type SnapshotFullRefresh struct {
	TransactTime  uint64
	LastMsgSeqNum uint32
	SecurityID    int32
	RptSeq        uint32
	TotNumReports uint32
	Entries       []SnapshotEntry
}

const snapshotBlockLen = 8 + 4 + 4 + 4 + 4

// Message is a decoded SBE message; exactly one field is non-nil.
type Message struct {
	Incremental *IncrementalRefresh
	Trade       *TradeSummary
	Snapshot    *SnapshotFullRefresh
}

// groupHeaderLen is the repeating-group dimension header:
// blockLength uint16 | numInGroup uint16.
const groupHeaderLen = 4

// AppendIncremental appends an encoded IncrementalRefresh to dst.
func AppendIncremental(dst []byte, m *IncrementalRefresh) []byte {
	dst = appendMessageHeader(dst, incrementalBlockLen, TemplateIncrementalRefreshBook)
	dst = binary.LittleEndian.AppendUint64(dst, m.TransactTime)
	dst = binary.LittleEndian.AppendUint16(dst, bookEntryLen)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Price))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Qty))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.SecurityID))
		dst = binary.LittleEndian.AppendUint32(dst, e.RptSeq)
		dst = append(dst, e.Level, byte(e.Action), byte(e.Entry), 0)
	}
	return dst
}

// AppendTrade appends an encoded TradeSummary to dst.
func AppendTrade(dst []byte, m *TradeSummary) []byte {
	dst = appendMessageHeader(dst, tradeBlockLen, TemplateTradeSummary)
	dst = binary.LittleEndian.AppendUint64(dst, m.TransactTime)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Price))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Qty))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.SecurityID))
	aggressor := byte(0)
	if m.AggressorBid {
		aggressor = 1
	}
	dst = append(dst, aggressor, 0, 0, 0)
	return dst
}

// AppendSnapshot appends an encoded SnapshotFullRefresh to dst.
func AppendSnapshot(dst []byte, m *SnapshotFullRefresh) []byte {
	dst = appendMessageHeader(dst, snapshotBlockLen, TemplateSnapshotFullRefresh)
	dst = binary.LittleEndian.AppendUint64(dst, m.TransactTime)
	dst = binary.LittleEndian.AppendUint32(dst, m.LastMsgSeqNum)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.SecurityID))
	dst = binary.LittleEndian.AppendUint32(dst, m.RptSeq)
	dst = binary.LittleEndian.AppendUint32(dst, m.TotNumReports)
	dst = binary.LittleEndian.AppendUint16(dst, snapshotEntryLen)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Price))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Qty))
		dst = append(dst, e.Level, byte(e.Entry), 0, 0)
	}
	return dst
}

func appendMessageHeader(dst []byte, blockLen uint16, template uint16) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, blockLen)
	dst = binary.LittleEndian.AppendUint16(dst, template)
	dst = binary.LittleEndian.AppendUint16(dst, SchemaID)
	dst = binary.LittleEndian.AppendUint16(dst, SchemaVersion)
	return dst
}
