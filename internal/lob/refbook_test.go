package lob

import (
	"fmt"
	"sort"
)

// refBook is the pre-rework map-based book implementation, retained
// verbatim (modulo renames) as the differential-testing oracle: the arena
// book must produce byte-identical fills, errors, sequence numbers and
// snapshots on any operation stream.
type refBook struct {
	symbol string

	bids map[int64]*refQueue
	asks map[int64]*refQueue

	bidPrices []int64
	askPrices []int64

	byID map[uint64]*Order

	lastTrade int64
	seq       uint64
}

type refQueue struct {
	price  int64
	orders []*Order
	qty    int64
}

func newRefBook(symbol string) *refBook {
	return &refBook{
		symbol: symbol,
		bids:   make(map[int64]*refQueue),
		asks:   make(map[int64]*refQueue),
		byID:   make(map[uint64]*Order),
	}
}

func (b *refBook) side(s Side) map[int64]*refQueue {
	if s == Bid {
		return b.bids
	}
	return b.asks
}

func (b *refBook) insertPrice(s Side, price int64) {
	if s == Bid {
		i := sort.Search(len(b.bidPrices), func(i int) bool { return b.bidPrices[i] <= price })
		if i < len(b.bidPrices) && b.bidPrices[i] == price {
			return
		}
		b.bidPrices = append(b.bidPrices, 0)
		copy(b.bidPrices[i+1:], b.bidPrices[i:])
		b.bidPrices[i] = price
		return
	}
	i := sort.Search(len(b.askPrices), func(i int) bool { return b.askPrices[i] >= price })
	if i < len(b.askPrices) && b.askPrices[i] == price {
		return
	}
	b.askPrices = append(b.askPrices, 0)
	copy(b.askPrices[i+1:], b.askPrices[i:])
	b.askPrices[i] = price
}

func (b *refBook) removePrice(s Side, price int64) {
	prices := &b.bidPrices
	cmp := func(i int) bool { return b.bidPrices[i] <= price }
	if s == Ask {
		prices = &b.askPrices
		cmp = func(i int) bool { return b.askPrices[i] >= price }
	}
	i := sort.Search(len(*prices), cmp)
	if i < len(*prices) && (*prices)[i] == price {
		*prices = append((*prices)[:i], (*prices)[i+1:]...)
	}
}

func (b *refBook) Add(id uint64, side Side, price, qty int64) ([]Fill, error) {
	if qty <= 0 {
		return nil, ErrBadQty
	}
	if price <= 0 {
		return nil, ErrBadPrice
	}
	if _, dup := b.byID[id]; dup {
		return nil, ErrDuplicateID
	}
	b.seq++
	fills := b.match(id, side, price, &qty)
	if qty > 0 {
		o := &Order{ID: id, Side: side, Price: price, Qty: qty}
		b.byID[id] = o
		m := b.side(side)
		q := m[price]
		if q == nil {
			q = &refQueue{price: price}
			m[price] = q
			b.insertPrice(side, price)
		}
		q.orders = append(q.orders, o)
		q.qty += qty
	}
	return fills, nil
}

func (b *refBook) match(takerID uint64, side Side, price int64, qty *int64) []Fill {
	var fills []Fill
	opp := b.side(side.Opposite())
	for *qty > 0 {
		var best int64
		if side == Bid {
			if len(b.askPrices) == 0 || b.askPrices[0] > price {
				break
			}
			best = b.askPrices[0]
		} else {
			if len(b.bidPrices) == 0 || b.bidPrices[0] < price {
				break
			}
			best = b.bidPrices[0]
		}
		q := opp[best]
		for *qty > 0 && len(q.orders) > 0 {
			maker := q.orders[0]
			ex := maker.Qty
			if *qty < ex {
				ex = *qty
			}
			maker.Qty -= ex
			q.qty -= ex
			*qty -= ex
			b.lastTrade = best
			fills = append(fills, Fill{
				MakerID: maker.ID, TakerID: takerID,
				Price: best, Qty: ex, TakerSide: side,
			})
			if maker.Qty == 0 {
				q.orders = q.orders[1:]
				delete(b.byID, maker.ID)
			}
		}
		if len(q.orders) == 0 {
			delete(opp, best)
			b.removePrice(side.Opposite(), best)
		}
	}
	return fills
}

func (b *refBook) Cancel(id uint64) error {
	o, ok := b.byID[id]
	if !ok {
		return ErrUnknownOrder
	}
	b.seq++
	b.unlink(o)
	return nil
}

func (b *refBook) unlink(o *Order) {
	m := b.side(o.Side)
	q := m[o.Price]
	for i, r := range q.orders {
		if r.ID == o.ID {
			q.orders = append(q.orders[:i], q.orders[i+1:]...)
			break
		}
	}
	q.qty -= o.Qty
	if len(q.orders) == 0 {
		delete(m, o.Price)
		b.removePrice(o.Side, o.Price)
	}
	delete(b.byID, o.ID)
}

func (b *refBook) Replace(id, newID uint64, price, qty int64) ([]Fill, error) {
	o, ok := b.byID[id]
	if !ok {
		return nil, ErrUnknownOrder
	}
	if qty <= 0 {
		return nil, ErrBadQty
	}
	if price <= 0 {
		return nil, ErrBadPrice
	}
	if _, dup := b.byID[newID]; dup && newID != id {
		return nil, ErrDuplicateID
	}
	side := o.Side
	b.seq++
	b.unlink(o)
	b.seq--
	return b.Add(newID, side, price, qty)
}

func (b *refBook) Levels(s Side, n int) []Level {
	prices := b.bidPrices
	m := b.bids
	if s == Ask {
		prices = b.askPrices
		m = b.asks
	}
	if n > len(prices) {
		n = len(prices)
	}
	out := make([]Level, 0, n)
	for _, p := range prices[:n] {
		q := m[p]
		out = append(out, Level{Price: p, Qty: q.qty, Orders: len(q.orders)})
	}
	return out
}

func (b *refBook) TakeSnapshot(timeNanos int64) Snapshot {
	s := Snapshot{Symbol: b.symbol, Seq: b.seq, TimeNanos: timeNanos, LastTrade: b.lastTrade}
	for i, l := range b.Levels(Bid, DepthLevels) {
		s.Bids[i] = l
	}
	for i, l := range b.Levels(Ask, DepthLevels) {
		s.Asks[i] = l
	}
	return s
}

func (b *refBook) Order(id uint64) (Order, bool) {
	o, ok := b.byID[id]
	if !ok {
		return Order{}, false
	}
	return *o, true
}

// stateString summarises observable book state for differential comparison.
func (b *refBook) stateString() string {
	return fmt.Sprintf("seq=%d last=%d bids=%v asks=%v",
		b.seq, b.lastTrade, b.Levels(Bid, 1<<30), b.Levels(Ask, 1<<30))
}
