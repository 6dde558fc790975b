package lob

import "fmt"

// CheckInvariants verifies the book's internal consistency for the unit,
// differential and property-based tests, returning a descriptive error on the
// first violation found.
func (b *Book) CheckInvariants() error {
	// Book must not be crossed.
	if len(b.bids) > 0 && len(b.asks) > 0 && b.bids[0].price >= b.asks[0].price {
		return fmt.Errorf("lob: crossed book bid %d >= ask %d", b.bids[0].price, b.asks[0].price)
	}
	// Sides must be sorted strictly best-first.
	for i := 1; i < len(b.bids); i++ {
		if b.bids[i-1].price <= b.bids[i].price {
			return fmt.Errorf("lob: bid prices not strictly descending at %d", i)
		}
	}
	for i := 1; i < len(b.asks); i++ {
		if b.asks[i-1].price >= b.asks[i].price {
			return fmt.Errorf("lob: ask prices not strictly ascending at %d", i)
		}
	}
	count := 0
	for _, side := range []Side{Bid, Ask} {
		for li := range *b.sideLevels(side) {
			l := &(*b.sideLevels(side))[li]
			if l.price <= 0 {
				return fmt.Errorf("lob: level with non-positive price %d", l.price)
			}
			if l.count == 0 {
				return fmt.Errorf("lob: empty level %d retained", l.price)
			}
			var sum int64
			var walked int32
			prev := nilIdx
			for idx := l.head; idx != nilIdx; idx = b.arena[idx].next {
				n := &b.arena[idx]
				if n.prev != prev {
					return fmt.Errorf("lob: order %d broken back-link", n.order.ID)
				}
				if n.order.Side != side {
					return fmt.Errorf("lob: order %d on wrong side", n.order.ID)
				}
				if n.order.Price != l.price {
					return fmt.Errorf("lob: order %d price %d on level %d", n.order.ID, n.order.Price, l.price)
				}
				if n.order.Qty <= 0 {
					return fmt.Errorf("lob: order %d non-positive qty %d", n.order.ID, n.order.Qty)
				}
				if got, ok := b.byID[n.order.ID]; !ok || got != idx {
					return fmt.Errorf("lob: order %d not indexed", n.order.ID)
				}
				sum += n.order.Qty
				walked++
				prev = idx
			}
			if prev != l.tail {
				return fmt.Errorf("lob: level %d tail mismatch", l.price)
			}
			if walked != l.count {
				return fmt.Errorf("lob: level %d count %d != walked %d", l.price, l.count, walked)
			}
			if sum != l.qty {
				return fmt.Errorf("lob: level %d qty %d != sum %d", l.price, l.qty, sum)
			}
			count += int(walked)
		}
	}
	if count != len(b.byID) {
		return fmt.Errorf("lob: id index holds %d orders, book holds %d", len(b.byID), count)
	}
	// The freelist must be acyclic and disjoint from resting orders.
	seen := 0
	for idx := b.free; idx != nilIdx; idx = b.arena[idx].next {
		seen++
		if seen > len(b.arena) {
			return fmt.Errorf("lob: freelist cycle")
		}
	}
	if seen+count != len(b.arena) {
		return fmt.Errorf("lob: arena %d != resting %d + free %d", len(b.arena), count, seen)
	}
	return nil
}
