package signal

import (
	"sync"
	"sync/atomic"
)

// shard is one fan-out worker: it owns a fraction of every symbol's
// subscribers and delivers the latest slot value to them when woken.
// Registration state is guarded by mu; the scan loop reads the COW
// subscriber slices without it.
type shard struct {
	gw *Gateway
	id int

	mu   sync.Mutex // guards COW list replacement on subscribe/unsubscribe
	wake chan struct{}

	scanning atomic.Bool
}

func newShard(g *Gateway, id int) *shard {
	return &shard{gw: g, id: id, wake: make(chan struct{}, 1)}
}

// notify wakes the shard without blocking (publishes coalesce into one
// pending wake — the channel is the shard's conflation of wake-ups).
func (sh *shard) notify() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// run is the shard goroutine: wait for a wake, then for every slot flagged
// dirty for this shard read the latest value once and deliver it to this
// shard's subscribers. One slot read serves the whole shard — fan-out cost
// is per subscriber, conflation cost is per shard.
func (sh *shard) run() {
	defer sh.gw.wg.Done()
	var val TradeSignal
	for {
		select {
		case <-sh.wake:
		case <-sh.gw.stop:
			return
		}
		sh.scanning.Store(true)
		delivered := uint64(0)
		for _, s := range *sh.gw.slots.Load() {
			if s.dirty[sh.id].Swap(0) == 0 {
				continue
			}
			lst := s.lists[sh.id].Load()
			if lst == nil || len(lst.subs) == 0 {
				continue
			}
			if !s.latest(&val) {
				continue
			}
			now := sh.gw.now()
			lag := now - val.PublishNanos
			for _, sub := range lst.subs {
				if sub.deliver(&val) {
					delivered++
					sh.gw.lat.Record(sh.id, lag)
				}
			}
		}
		if delivered > 0 {
			sh.gw.delivered.Add(delivered)
		}
		sh.scanning.Store(false)
	}
}

// subscriber is one conflated consumer endpoint: either an in-process
// channel (ch != nil) or one symbol of a wire connection (cs != nil).
// seen is only touched by the owning shard's goroutine.
type subscriber struct {
	slot  *slot
	shard *shard

	ch    chan TradeSignal // in-process conflated delivery
	cs    *connSink        // wire-connection conflated delivery
	csIdx int              // index into cs.pending

	seen   uint64 // newest Seq delivered (shard-goroutine local)
	drops  atomic.Uint64
	closed atomic.Bool
}

// deliver offers the latest value to the subscriber, accounting skipped
// and replaced updates as conflation drops. Never blocks. Reports whether
// a delivery happened.
func (sub *subscriber) deliver(v *TradeSignal) bool {
	if sub.closed.Load() {
		return false
	}
	if v.Seq <= sub.seen {
		return false // re-wake without a newer publish
	}
	if skipped := v.Seq - sub.seen - 1; skipped > 0 {
		sub.drops.Add(skipped)
		sub.slot.drops.Add(skipped)
	}
	sub.seen = v.Seq
	if sub.ch != nil {
		select {
		case sub.ch <- *v:
		default:
			// Consumer still holds an older value: replace it (that value
			// is now a conflation drop) and offer the newest.
			select {
			case <-sub.ch:
				sub.drops.Add(1)
				sub.slot.drops.Add(1)
			default:
			}
			select {
			case sub.ch <- *v:
			default:
			}
		}
		return true
	}
	return sub.cs.push(v, sub)
}

// unsubscribe removes the subscriber from its shard's COW list and marks
// it dead. Idempotent.
func (sub *subscriber) unsubscribe() {
	if sub.closed.Swap(true) {
		return
	}
	sh := sub.shard
	s := sub.slot
	sh.mu.Lock()
	if old := s.lists[sh.id].Load(); old != nil {
		pruned := subList{subs: make([]*subscriber, 0, len(old.subs))}
		for _, o := range old.subs {
			if o != sub {
				pruned.subs = append(pruned.subs, o)
			}
		}
		s.lists[sh.id].Store(&pruned)
	}
	sh.mu.Unlock()
	s.subs.Add(-1)
	sh.gw.subCount.Add(-1)
}

// connSink is one wire connection's conflated outbox: a latest-value cell
// per subscribed symbol plus a non-blocking writer wake. Shard goroutines
// push under the mutex (a copy, never I/O); the connection's writer
// goroutine drains and performs the deadline-guarded socket writes.
type connSink struct {
	mu      sync.Mutex
	pending []TradeSignal
	has     []bool
	closed  bool
	notify  chan struct{}
}

func newConnSink() *connSink {
	return &connSink{notify: make(chan struct{}, 1)}
}

// addSlot reserves one conflation cell, returning its index.
func (cs *connSink) addSlot() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.pending = append(cs.pending, TradeSignal{})
	cs.has = append(cs.has, false)
	return len(cs.pending) - 1
}

// push conflates v into the subscriber's cell. Replacing an unsent value
// counts as a drop for that subscriber. Reports whether the sink is live.
func (cs *connSink) push(v *TradeSignal, sub *subscriber) bool {
	cs.mu.Lock()
	if cs.closed {
		cs.mu.Unlock()
		return false
	}
	if cs.has[sub.csIdx] {
		sub.drops.Add(1)
		sub.slot.drops.Add(1)
	}
	cs.pending[sub.csIdx] = *v
	cs.has[sub.csIdx] = true
	cs.mu.Unlock()
	select {
	case cs.notify <- struct{}{}:
	default:
	}
	return true
}

// take pops the next pending value, scanning from cell next (round-robin
// fairness across a connection's symbols). Returns ok=false when drained.
func (cs *connSink) take(next *int) (TradeSignal, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := len(cs.pending)
	for i := 0; i < n; i++ {
		idx := (*next + i) % n
		if cs.has[idx] {
			cs.has[idx] = false
			*next = idx + 1
			return cs.pending[idx], true
		}
	}
	return TradeSignal{}, false
}

// close marks the sink dead; pushes after close are ignored.
func (cs *connSink) close() {
	cs.mu.Lock()
	cs.closed = true
	cs.mu.Unlock()
}
