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
	// listings holds one record per listed instrument: its book, its
	// RptSeq, and the top of book its last incremental described, which
	// Submit diffs the mutated book against.
	listings map[int32]*listing
	seqNum   uint32
	now      func() int64
	publish  Publisher

	// Publication scratch, reused across Submit/PublishSnapshot calls so the
	// market-data path is allocation-free in steady state. Safe because the
	// Publisher contract forbids retaining buf.
	fillsBuf   []lob.Fill
	levelsBuf  []lob.Level
	entriesBuf []sbe.BookEntry
	tradesBuf  []sbe.TradeSummary
	msgsBuf    []sbe.Message
	incBuf     sbe.IncrementalRefresh
	snapBuf    []sbe.SnapshotEntry
	snapMsg    sbe.SnapshotFullRefresh
	encBuf     []byte
}

// listing is one listed instrument. top is the book's visible depth as of
// the last Submit that reached it: only a Submit mutates the book, and every
// Submit that can have mutated it refreshes top while it publishes the
// difference, so top always equals the book's current top levels.
type listing struct {
	book   *lob.Book
	rptSeq uint32
	top    [2][lob.DepthLevels]lob.Level
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
		listings: make(map[int32]*listing),
		now:      now,
		publish:  publish,
	}
}

// ErrUnknownSecurity is returned for requests naming an unlisted instrument.
var ErrUnknownSecurity = errors.New("exchange: unknown security")

// ListSecurity registers an instrument with an empty book.
func (e *Engine) ListSecurity(id int32, symbol string) {
	e.listings[id] = &listing{book: lob.New(symbol)}
}

// Book exposes the book for a security, for reading only: a change made
// through it bypasses the market data the engine publishes.
func (e *Engine) Book(id int32) (*lob.Book, bool) {
	l, ok := e.listings[id]
	if !ok {
		return nil, false
	}
	return l.book, true
}

// Submit processes one order-entry request, returning execution reports for
// the requesting client in a slice of their own. It is AppendSubmit onto
// nothing.
func (e *Engine) Submit(req Request) []ExecReport { return e.AppendSubmit(nil, req) }

// AppendSubmit processes one order-entry request, appending its execution
// reports to dst and returning the extended slice, and publishes market
// data describing the book changes and trades. A caller that reuses dst
// across requests allocates no reports. A rejected request leaves the book
// as it was: every lob mutation validates before it changes anything.
func (e *Engine) AppendSubmit(dst []ExecReport, req Request) []ExecReport {
	now := e.now()
	l, ok := e.listings[req.SecurityID]
	if !ok {
		return append(dst, ExecReport{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
			Reason: ErrUnknownSecurity.Error(), TimeNanos: now})
	}
	b := l.book
	var first ExecReport
	var fills []lob.Fill
	switch req.Kind {
	case ReqNew:
		price := req.Price
		if req.Type == Market {
			// Convert to an aggressive limit at the far touch; remainder is
			// cancelled rather than rested (IOC semantics).
			price = e.marketablePrice(b, req.Side)
			if price == 0 {
				return append(dst, ExecReport{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
					Side: req.Side, Reason: "no liquidity", TimeNanos: now})
			}
		}
		fl, err := b.AddTo(e.fillsBuf[:0], req.ClOrdID, req.Side, price, req.Qty)
		e.fillsBuf = fl[:0]
		if err != nil {
			return append(dst, ExecReport{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
				Side: req.Side, Reason: err.Error(), TimeNanos: now})
		}
		fills = fl
		if req.Type == Market {
			// Cancel any unfilled remainder of a market order.
			if _, resting := b.Order(req.ClOrdID); resting {
				_ = b.Cancel(req.ClOrdID)
			}
		}
		first = ExecReport{Exec: ExecAccepted, ClOrdID: req.ClOrdID,
			SecurityID: req.SecurityID, Side: req.Side, Price: price, Qty: req.Qty, TimeNanos: now}
	case ReqCancel:
		if err := b.Cancel(req.ClOrdID); err != nil {
			return append(dst, ExecReport{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
				Reason: err.Error(), TimeNanos: now})
		}
		first = ExecReport{Exec: ExecCanceled, ClOrdID: req.ClOrdID,
			SecurityID: req.SecurityID, TimeNanos: now}
	case ReqReplace:
		fl, err := b.ReplaceTo(e.fillsBuf[:0], req.ClOrdID, req.NewClOrdID, req.Price, req.Qty)
		e.fillsBuf = fl[:0]
		if err != nil {
			return append(dst, ExecReport{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
				Reason: err.Error(), TimeNanos: now})
		}
		fills = fl
		first = ExecReport{Exec: ExecReplaced, ClOrdID: req.NewClOrdID,
			SecurityID: req.SecurityID, Side: req.Side, Price: req.Price, Qty: req.Qty, TimeNanos: now}
	default:
		return append(dst, ExecReport{Exec: ExecRejected, ClOrdID: req.ClOrdID, SecurityID: req.SecurityID,
			Reason: fmt.Sprintf("unknown request kind %d", req.Kind), TimeNanos: now})
	}
	// One growth at most, exact for Submit's nil dst and at least doubling a
	// reused one. (slices.Grow would allocate twice under the race detector.)
	if need := len(dst) + 1 + len(fills); need > cap(dst) {
		dst = append(make([]ExecReport, 0, cap(dst)+need), dst...)
	}
	dst = append(dst, first)
	// One fill per maker matched, all the taker's. ExecFilled is terminal —
	// consumers retire the id on it — so only the fill that ends the order
	// carries it: the last one, unless a remainder rests.
	for i, f := range fills {
		exec := ExecPartialFill
		if _, resting := b.Order(f.TakerID); i == len(fills)-1 && !resting {
			exec = ExecFilled
		}
		dst = append(dst, ExecReport{Exec: exec, ClOrdID: f.TakerID,
			SecurityID: req.SecurityID, Side: f.TakerSide, Price: f.Price, Qty: f.Qty, TimeNanos: now})
	}
	e.publishDelta(req.SecurityID, l, fills, now)
	return dst
}

// marketablePrice returns a price that crosses the entire visible opposite
// side, or 0 when the opposite side is empty.
func (e *Engine) marketablePrice(b *lob.Book, side lob.Side) int64 {
	e.levelsBuf = b.AppendLevels(e.levelsBuf[:0], side.Opposite(), lob.DepthLevels)
	if len(e.levelsBuf) == 0 {
		return 0
	}
	return e.levelsBuf[len(e.levelsBuf)-1].Price
}

// publishDelta emits an MDP-style packet describing the visible book changes
// (market-by-price diff of the top levels against the listing's stored top,
// which it brings up to date) plus trade summaries.
func (e *Engine) publishDelta(secID int32, l *listing, fills []lob.Fill, now int64) {
	entries := e.entriesBuf[:0]
	for sideIdx, side := range [...]lob.Side{lob.Bid, lob.Ask} {
		entryType := sbe.EntryBid
		if side == lob.Ask {
			entryType = sbe.EntryAsk
		}
		e.levelsBuf = l.book.AppendLevels(e.levelsBuf[:0], side, lob.DepthLevels)
		for lvl := 0; lvl < lob.DepthLevels; lvl++ {
			var newL lob.Level
			if lvl < len(e.levelsBuf) {
				newL = e.levelsBuf[lvl]
			}
			oldL := l.top[sideIdx][lvl]
			if oldL == newL {
				continue
			}
			l.top[sideIdx][lvl] = newL
			l.rptSeq++
			entry := sbe.BookEntry{
				Price:      newL.Price,
				Qty:        int32(newL.Qty),
				SecurityID: secID,
				RptSeq:     l.rptSeq,
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
	l, ok := e.listings[secID]
	if !ok {
		return ErrUnknownSecurity
	}
	now := e.now()
	snap := l.book.TakeSnapshot(now)
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
		RptSeq:        l.rptSeq,
		TotNumReports: 1,
		Entries:       e.snapBuf,
	}
	e.seqNum++
	e.msgsBuf = append(e.msgsBuf[:0], sbe.Message{Snapshot: &e.snapMsg})
	e.encBuf = sbe.AppendPacket(e.encBuf[:0], e.seqNum, uint64(now), e.msgsBuf)
	e.publish(e.encBuf)
	return nil
}
