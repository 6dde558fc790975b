// Package exchange implements the exchange-side substrate: order
// sequencing, the matching engine, and market-data publication (paper
// §II-A). The scenario world (internal/scenario) drives it to generate
// every tick stream, offline and, behind the UDP/TCP sockets of
// internal/venue, live; perf times it with publication discarded.
package exchange

import (
	"errors"
	"fmt"

	"lighttrader/internal/lob"
	"lighttrader/internal/sbe"
)

// OrderType distinguishes order-entry request kinds.
type OrderType uint8

const (
	// Limit is a resting-capable limit order.
	Limit OrderType = iota
	// Market crosses immediately against the opposite side and never rests.
	Market
)

// Request is an inbound order-entry action.
type Request struct {
	Kind       RequestKind
	SecurityID int32
	ClOrdID    uint64 // client order id (Add/Replace target for Cancel/Replace)
	NewClOrdID uint64 // replacement id for Replace
	Side       lob.Side
	Type       OrderType
	Price      int64
	Qty        int64
}

// RequestKind enumerates order-entry actions.
type RequestKind uint8

const (
	// ReqNew places a new order.
	ReqNew RequestKind = iota
	// ReqCancel cancels a resting order.
	ReqCancel
	// ReqReplace atomically cancels and replaces a resting order.
	ReqReplace
)

// ExecType enumerates execution-report outcomes.
type ExecType uint8

const (
	ExecAccepted ExecType = iota
	ExecFilled
	ExecPartialFill
	ExecCanceled
	ExecReplaced
	ExecRejected
)

// ExecReport is the exchange's answer to a Request, one or more per request.
type ExecReport struct {
	Exec       ExecType
	ClOrdID    uint64
	SecurityID int32
	Side       lob.Side
	Price      int64 // fill price for fills, order price otherwise
	Qty        int64 // fill qty for fills, remaining qty otherwise
	Reason     string
	TimeNanos  int64
}

// Publisher consumes encoded market-data datagrams. Implementations must not
// retain buf after returning.
type Publisher func(buf []byte)

// Engine is a single-venue matching engine over one or more instruments.
// It is not safe for concurrent use; the surrounding server or simulator
// serialises access, mirroring the per-channel ordering of a real venue.
type Engine struct {
	books   map[int32]*lob.Book
	rptSeq  map[int32]uint32
	seqNum  uint32
	now     func() int64
	publish Publisher

	// Publication scratch, reused across Submit/PublishSnapshot calls so the
	// market-data path is allocation-free in steady state. Safe because the
	// Publisher contract forbids retaining buf.
	fillsBuf   []lob.Fill
	entriesBuf []sbe.BookEntry
	tradesBuf  []sbe.TradeSummary
	msgsBuf    []sbe.Message
	incBuf     sbe.IncrementalRefresh
	snapBuf    []sbe.SnapshotEntry
	snapMsg    sbe.SnapshotFullRefresh
	encBuf     []byte
}

// New creates an engine. now supplies the exchange clock in nanoseconds;
// publish receives every encoded market-data packet (may be nil to discard).
func New(now func() int64, publish Publisher) *Engine {
	if now == nil {
		panic("exchange: nil clock")
	}
	if publish == nil {
		publish = func([]byte) {}
	}
	return &Engine{
		books:   make(map[int32]*lob.Book),
		rptSeq:  make(map[int32]uint32),
		now:     now,
		publish: publish,
	}
}

// ErrUnknownSecurity is returned for requests naming an unlisted instrument.
var ErrUnknownSecurity = errors.New("exchange: unknown security")

// ListSecurity registers an instrument.
func (e *Engine) ListSecurity(id int32, symbol string) {
	e.books[id] = lob.New(symbol)
}

// Book exposes the book for a security (read-only use by tests/simulator).
func (e *Engine) Book(id int32) (*lob.Book, bool) {
	b, ok := e.books[id]
	return b, ok
}

// Submit processes one order-entry request, returning execution reports for
// the requesting client and publishing market data describing the book
// changes and trades.
func (e *Engine) Submit(req Request) []ExecReport {
	now := e.now()
	b, ok := e.books[req.SecurityID]
	if !ok {
		return []ExecReport{{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
			Reason: ErrUnknownSecurity.Error(), TimeNanos: now}}
	}
	before := e.captureTop(b)
	var reports []ExecReport
	var fills []lob.Fill
	switch req.Kind {
	case ReqNew:
		price := req.Price
		if req.Type == Market {
			// Convert to an aggressive limit at the far touch; remainder is
			// cancelled rather than rested (IOC semantics).
			price = e.marketablePrice(b, req.Side)
			if price == 0 {
				return []ExecReport{{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
					Side: req.Side, Reason: "no liquidity", TimeNanos: now}}
			}
		}
		fl, err := b.AddTo(e.fillsBuf[:0], req.ClOrdID, req.Side, price, req.Qty)
		e.fillsBuf = fl[:0]
		if err != nil {
			return []ExecReport{{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
				Side: req.Side, Reason: err.Error(), TimeNanos: now}}
		}
		fills = fl
		if req.Type == Market {
			// Cancel any unfilled remainder of a market order.
			if _, resting := b.Order(req.ClOrdID); resting {
				_ = b.Cancel(req.ClOrdID)
			}
		}
		reports = append(reports, ExecReport{Exec: ExecAccepted, ClOrdID: req.ClOrdID,
			SecurityID: req.SecurityID, Side: req.Side, Price: price, Qty: req.Qty, TimeNanos: now})
	case ReqCancel:
		if err := b.Cancel(req.ClOrdID); err != nil {
			return []ExecReport{{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
				Reason: err.Error(), TimeNanos: now}}
		}
		reports = append(reports, ExecReport{Exec: ExecCanceled, ClOrdID: req.ClOrdID,
			SecurityID: req.SecurityID, TimeNanos: now})
	case ReqReplace:
		fl, err := b.ReplaceTo(e.fillsBuf[:0], req.ClOrdID, req.NewClOrdID, req.Price, req.Qty)
		e.fillsBuf = fl[:0]
		if err != nil {
			return []ExecReport{{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
				Reason: err.Error(), TimeNanos: now}}
		}
		fills = fl
		reports = append(reports, ExecReport{Exec: ExecReplaced, ClOrdID: req.NewClOrdID,
			SecurityID: req.SecurityID, Side: req.Side, Price: req.Price, Qty: req.Qty, TimeNanos: now})
	default:
		return []ExecReport{{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
			Reason: fmt.Sprintf("unknown request kind %d", req.Kind), TimeNanos: now}}
	}
	// One fill per maker matched, all the taker's. ExecFilled is terminal —
	// consumers retire the id on it — so only the fill that ends the order
	// carries it: the last one, unless a remainder rests.
	for i, f := range fills {
		exec := ExecPartialFill
		if _, resting := b.Order(f.TakerID); i == len(fills)-1 && !resting {
			exec = ExecFilled
		}
		reports = append(reports, ExecReport{Exec: exec, ClOrdID: f.TakerID,
			SecurityID: req.SecurityID, Side: f.TakerSide, Price: f.Price, Qty: f.Qty, TimeNanos: now})
	}
	e.publishDelta(req.SecurityID, b, before, fills, now)
	return reports
}

// marketablePrice returns a price that crosses the entire visible opposite
// side, or 0 when the opposite side is empty.
func (e *Engine) marketablePrice(b *lob.Book, side lob.Side) int64 {
	levels := b.Levels(side.Opposite(), lob.DepthLevels)
	if len(levels) == 0 {
		return 0
	}
	return levels[len(levels)-1].Price
}

// captureTop snapshots the visible levels before a mutation so the
// market-data diff can be computed afterwards.
func (e *Engine) captureTop(b *lob.Book) (top [2][lob.DepthLevels]lob.Level) {
	snap := b.TakeSnapshot(0)
	top[0] = snap.Bids
	top[1] = snap.Asks
	return top
}

// publishDelta emits an MDP-style packet describing the visible book changes
// (market-by-price diff of the top levels) plus trade summaries.
func (e *Engine) publishDelta(secID int32, b *lob.Book, before [2][lob.DepthLevels]lob.Level, fills []lob.Fill, now int64) {
	after := e.captureTop(b)
	entries := e.entriesBuf[:0]
	for sideIdx, entryType := range []sbe.EntryType{sbe.EntryBid, sbe.EntryAsk} {
		for lvl := 0; lvl < lob.DepthLevels; lvl++ {
			oldL, newL := before[sideIdx][lvl], after[sideIdx][lvl]
			if oldL == newL {
				continue
			}
			e.rptSeq[secID]++
			entry := sbe.BookEntry{
				Price:      newL.Price,
				Qty:        int32(newL.Qty),
				SecurityID: secID,
				RptSeq:     e.rptSeq[secID],
				Level:      uint8(lvl + 1),
				Entry:      entryType,
			}
			switch {
			case oldL.Price == 0:
				entry.Action = sbe.ActionNew
			case newL.Price == 0:
				entry.Action = sbe.ActionDelete
				entry.Price = oldL.Price
			case oldL.Price != newL.Price:
				entry.Action = sbe.ActionNew // price shifted into this level
			default:
				entry.Action = sbe.ActionChange
			}
			entries = append(entries, entry)
		}
	}
	e.entriesBuf = entries
	if len(entries) == 0 && len(fills) == 0 {
		return
	}
	e.seqNum++
	e.tradesBuf = e.tradesBuf[:0]
	for _, f := range fills {
		e.tradesBuf = append(e.tradesBuf, sbe.TradeSummary{
			TransactTime: uint64(now),
			Price:        f.Price,
			Qty:          int32(f.Qty),
			SecurityID:   secID,
			AggressorBid: f.TakerSide == lob.Bid,
		})
	}
	e.msgsBuf = e.msgsBuf[:0]
	if len(entries) > 0 {
		e.incBuf = sbe.IncrementalRefresh{TransactTime: uint64(now), Entries: entries}
		e.msgsBuf = append(e.msgsBuf, sbe.Message{Incremental: &e.incBuf})
	}
	// Trade pointers are taken only after the slice stopped growing.
	for i := range e.tradesBuf {
		e.msgsBuf = append(e.msgsBuf, sbe.Message{Trade: &e.tradesBuf[i]})
	}
	e.encBuf = sbe.AppendPacket(e.encBuf[:0], e.seqNum, uint64(now), e.msgsBuf)
	e.publish(e.encBuf)
}

// PublishSnapshot emits a full top-of-book snapshot for secID, used by the
// recovery channel and to seed late joiners.
func (e *Engine) PublishSnapshot(secID int32) error {
	b, ok := e.books[secID]
	if !ok {
		return ErrUnknownSecurity
	}
	now := e.now()
	snap := b.TakeSnapshot(now)
	e.snapBuf = e.snapBuf[:0]
	for i := 0; i < lob.DepthLevels; i++ {
		if snap.Bids[i].Price != 0 {
			e.snapBuf = append(e.snapBuf, sbe.SnapshotEntry{
				Price: snap.Bids[i].Price, Qty: int32(snap.Bids[i].Qty),
				Level: uint8(i + 1), Entry: sbe.EntryBid,
			})
		}
		if snap.Asks[i].Price != 0 {
			e.snapBuf = append(e.snapBuf, sbe.SnapshotEntry{
				Price: snap.Asks[i].Price, Qty: int32(snap.Asks[i].Qty),
				Level: uint8(i + 1), Entry: sbe.EntryAsk,
			})
		}
	}
	e.snapMsg = sbe.SnapshotFullRefresh{
		TransactTime:  uint64(now),
		LastMsgSeqNum: e.seqNum,
		SecurityID:    secID,
		RptSeq:        e.rptSeq[secID],
		TotNumReports: 1,
		Entries:       e.snapBuf,
	}
	e.seqNum++
	e.msgsBuf = append(e.msgsBuf[:0], sbe.Message{Snapshot: &e.snapMsg})
	e.encBuf = sbe.AppendPacket(e.encBuf[:0], e.seqNum, uint64(now), e.msgsBuf)
	e.publish(e.encBuf)
	return nil
}
