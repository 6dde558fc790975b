// Package lob implements a price-time priority limit order book.
//
// The book is the canonical representation of market state in the LightTrader
// pipeline (paper §II-A): bids and asks are kept per price level, orders at a
// level are filled in arrival order, and the top N levels are exported as
// fixed-size snapshots that feed the DNN offload engine.
//
// Prices are integer ticks and quantities are integer lots so that book
// arithmetic is exact; conversion to decimal happens only at the protocol
// boundary (package sbe / orderentry).
//
// Internally each side is a sorted slice of levels (index 0 = top of book)
// and resting orders live in an arena of intrusively linked nodes recycled
// through a freelist, so steady-state Add/Cancel/Replace/match touch no
// allocator and best-price access is a direct index instead of a map probe.
package lob

import (
	"errors"
	"fmt"
	"sort"
)

// Side distinguishes the bid (buy) and ask (sell) sides of the book.
type Side uint8

const (
	// Bid is the buy side: higher prices are more aggressive.
	Bid Side = iota
	// Ask is the sell side: lower prices are more aggressive.
	Ask
)

// Opposite returns the other side.
func (s Side) Opposite() Side {
	if s == Bid {
		return Ask
	}
	return Bid
}

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case Bid:
		return "bid"
	case Ask:
		return "ask"
	default:
		return fmt.Sprintf("Side(%d)", uint8(s))
	}
}

// Order is a resting limit order.
type Order struct {
	ID    uint64
	Side  Side
	Price int64 // price in ticks
	Qty   int64 // remaining quantity in lots
}

// Level aggregates the resting orders at one price.
type Level struct {
	Price  int64
	Qty    int64 // total resting quantity
	Orders int   // number of resting orders
}

// Fill reports a match between an incoming order and a resting order.
type Fill struct {
	MakerID uint64 // resting order
	TakerID uint64 // incoming order
	Price   int64  // execution price (maker's price)
	Qty     int64
	// TakerSide is the side of the incoming (aggressing) order.
	TakerSide Side
}

// Errors returned by book mutations.
var (
	ErrUnknownOrder = errors.New("lob: unknown order id")
	ErrDuplicateID  = errors.New("lob: duplicate order id")
	ErrBadQty       = errors.New("lob: quantity must be positive")
	ErrBadPrice     = errors.New("lob: price must be positive")
)

// nilIdx marks an empty arena link.
const nilIdx int32 = -1

// node is one resting order in the arena, linked FIFO within its level
// (head = oldest = first to fill).
type node struct {
	order      Order
	prev, next int32
}

// level aggregates one price on one side: total quantity, order count, and
// the FIFO of resting orders as arena indices.
type level struct {
	price      int64
	qty        int64
	count      int32
	head, tail int32
}

// Book is a single-instrument limit order book with price-time priority.
// It is not safe for concurrent use; the trading pipeline owns one book per
// subscribed symbol and mutates it from a single goroutine, mirroring the
// single-threaded FPGA book-update stage.
type Book struct {
	symbol string

	// bids are sorted descending, asks ascending: index 0 is top of book.
	bids []level
	asks []level

	// arena holds every resting order; free chains recycled slots so
	// steady-state order churn never allocates.
	arena []node
	free  int32

	byID map[uint64]int32 // order id -> arena index

	lastTrade int64 // last execution price, 0 until first trade
	seq       uint64
}

// New returns an empty book for symbol.
func New(symbol string) *Book {
	return &Book{
		symbol: symbol,
		free:   nilIdx,
		byID:   make(map[uint64]int32),
	}
}

// sideLevels returns the level slice for s.
func (b *Book) sideLevels(s Side) *[]level {
	if s == Bid {
		return &b.bids
	}
	return &b.asks
}

// findLevel locates price on side s: the index where it is (found) or
// where it would be inserted to keep the side sorted best-first.
func (b *Book) findLevel(s Side, price int64) (int, bool) {
	lv := *b.sideLevels(s)
	var i int
	if s == Bid {
		i = sort.Search(len(lv), func(i int) bool { return lv[i].price <= price })
	} else {
		i = sort.Search(len(lv), func(i int) bool { return lv[i].price >= price })
	}
	return i, i < len(lv) && lv[i].price == price
}

// insertLevel opens an empty level for price at index i on side s.
func (b *Book) insertLevel(s Side, i int, price int64) *level {
	lv := b.sideLevels(s)
	*lv = append(*lv, level{})
	copy((*lv)[i+1:], (*lv)[i:])
	(*lv)[i] = level{price: price, head: nilIdx, tail: nilIdx}
	return &(*lv)[i]
}

// removeLevel drops the emptied level at index i on side s.
func (b *Book) removeLevel(s Side, i int) {
	lv := b.sideLevels(s)
	*lv = append((*lv)[:i], (*lv)[i+1:]...)
}

// allocNode takes a slot from the freelist, growing the arena when dry.
func (b *Book) allocNode(o Order) int32 {
	if b.free != nilIdx {
		idx := b.free
		n := &b.arena[idx]
		b.free = n.next
		*n = node{order: o, prev: nilIdx, next: nilIdx}
		return idx
	}
	b.arena = append(b.arena, node{order: o, prev: nilIdx, next: nilIdx})
	return int32(len(b.arena) - 1)
}

// freeNode returns an arena slot to the freelist.
func (b *Book) freeNode(idx int32) {
	b.arena[idx] = node{next: b.free}
	b.free = idx
}

// BestBid returns the highest bid level, or false if the bid side is empty.
func (b *Book) BestBid() (Level, bool) {
	if len(b.bids) == 0 {
		return Level{}, false
	}
	l := &b.bids[0]
	return Level{Price: l.price, Qty: l.qty, Orders: int(l.count)}, true
}

// BestAsk returns the lowest ask level, or false if the ask side is empty.
func (b *Book) BestAsk() (Level, bool) {
	if len(b.asks) == 0 {
		return Level{}, false
	}
	l := &b.asks[0]
	return Level{Price: l.price, Qty: l.qty, Orders: int(l.count)}, true
}

// Mid returns the midpoint of the best bid and ask in half-ticks (price*2
// would be exact; we return a float for convenience) and false when either
// side is empty.
func (b *Book) Mid() (float64, bool) {
	bb, okB := b.BestBid()
	ba, okA := b.BestAsk()
	if !okB || !okA {
		return 0, false
	}
	return float64(bb.Price+ba.Price) / 2, true
}

// Order returns a copy of the resting order with the given id.
func (b *Book) Order(id uint64) (Order, bool) {
	idx, ok := b.byID[id]
	if !ok {
		return Order{}, false
	}
	return b.arena[idx].order, true
}

// Add places a limit order. If the order crosses the opposite side it is
// matched immediately (price-time priority, maker price); any remainder
// rests. The returned fills are in execution order.
//
// Add allocates the fill slice it returns; allocation-sensitive callers
// should use AddTo with a reusable destination.
func (b *Book) Add(id uint64, side Side, price, qty int64) ([]Fill, error) {
	fills, err := b.AddTo(nil, id, side, price, qty)
	if err != nil {
		return nil, err
	}
	return fills, nil
}

// AddTo is Add with caller-owned fill storage: fills are appended to dst
// and the extended slice is returned (nil error ⇒ same semantics as Add).
// With a warm dst and a recycled arena slot the call performs zero heap
// allocations.
func (b *Book) AddTo(dst []Fill, id uint64, side Side, price, qty int64) ([]Fill, error) {
	if qty <= 0 {
		return dst, ErrBadQty
	}
	if price <= 0 {
		return dst, ErrBadPrice
	}
	if _, dup := b.byID[id]; dup {
		return dst, ErrDuplicateID
	}
	b.seq++
	dst = b.match(dst, id, side, price, &qty)
	if qty > 0 {
		idx := b.allocNode(Order{ID: id, Side: side, Price: price, Qty: qty})
		b.byID[id] = idx
		li, found := b.findLevel(side, price)
		var l *level
		if found {
			l = &(*b.sideLevels(side))[li]
		} else {
			l = b.insertLevel(side, li, price)
		}
		n := &b.arena[idx]
		n.prev = l.tail
		if l.tail != nilIdx {
			b.arena[l.tail].next = idx
		} else {
			l.head = idx
		}
		l.tail = idx
		l.count++
		l.qty += qty
	}
	return dst, nil
}

// match executes an incoming order against the opposite side while prices
// cross, decrementing *qty in place and appending fills to dst.
func (b *Book) match(dst []Fill, takerID uint64, side Side, price int64, qty *int64) []Fill {
	opp := b.sideLevels(side.Opposite())
	for *qty > 0 && len(*opp) > 0 {
		l := &(*opp)[0]
		if side == Bid {
			if l.price > price {
				break
			}
		} else if l.price < price {
			break
		}
		best := l.price
		for *qty > 0 && l.count > 0 {
			makerIdx := l.head
			maker := &b.arena[makerIdx]
			ex := maker.order.Qty
			if *qty < ex {
				ex = *qty
			}
			maker.order.Qty -= ex
			l.qty -= ex
			*qty -= ex
			b.lastTrade = best
			dst = append(dst, Fill{
				MakerID: maker.order.ID, TakerID: takerID,
				Price: best, Qty: ex, TakerSide: side,
			})
			if maker.order.Qty == 0 {
				l.head = maker.next
				if l.head != nilIdx {
					b.arena[l.head].prev = nilIdx
				} else {
					l.tail = nilIdx
				}
				l.count--
				delete(b.byID, maker.order.ID)
				b.freeNode(makerIdx)
			}
		}
		if l.count == 0 {
			b.removeLevel(side.Opposite(), 0)
		}
	}
	return dst
}

// Cancel removes a resting order.
func (b *Book) Cancel(id uint64) error {
	idx, ok := b.byID[id]
	if !ok {
		return ErrUnknownOrder
	}
	b.seq++
	b.unlink(idx)
	return nil
}

// unlink removes the order at arena index idx from its level queue and the
// id index, recycling its slot.
func (b *Book) unlink(idx int32) {
	n := &b.arena[idx]
	side, price := n.order.Side, n.order.Price
	li, _ := b.findLevel(side, price)
	l := &(*b.sideLevels(side))[li]
	if n.prev != nilIdx {
		b.arena[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nilIdx {
		b.arena[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	l.count--
	l.qty -= n.order.Qty
	if l.count == 0 {
		b.removeLevel(side, li)
	}
	delete(b.byID, n.order.ID)
	b.freeNode(idx)
}

// ReplaceTo atomically cancels id and places a new order with newID at the
// new price/qty, losing time priority (CME semantics for price or qty-up
// changes). Fills produced by the replacement order are appended to dst.
func (b *Book) ReplaceTo(dst []Fill, id, newID uint64, price, qty int64) ([]Fill, error) {
	idx, ok := b.byID[id]
	if !ok {
		return dst, ErrUnknownOrder
	}
	if qty <= 0 {
		return dst, ErrBadQty
	}
	if price <= 0 {
		return dst, ErrBadPrice
	}
	if _, dup := b.byID[newID]; dup && newID != id {
		return dst, ErrDuplicateID
	}
	side := b.arena[idx].order.Side
	b.seq++
	b.unlink(idx)
	b.seq-- // AddTo below will bump it; count replace as one mutation
	return b.AddTo(dst, newID, side, price, qty)
}

// AppendLevels appends up to n aggregated levels from the top of side s,
// best first, to dst and returns the extended slice.
func (b *Book) AppendLevels(dst []Level, s Side, n int) []Level {
	lv := *b.sideLevels(s)
	if n > len(lv) {
		n = len(lv)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, Level{Price: lv[i].price, Qty: lv[i].qty, Orders: int(lv[i].count)})
	}
	return dst
}
