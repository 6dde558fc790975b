package lob

// DepthLevels is the number of book levels per side exported to the DNN
// pipeline. The paper's offload engine consumes ten levels of bids and asks
// (price and quantity each), matching the FI-2010/DeepLOB convention.
const DepthLevels = 10

// Snapshot is a fixed-size top-of-book view: DepthLevels levels per side.
// Missing levels (thin book) are zero. Snapshots are value types so they can
// be queued and copied freely by the offload engine.
type Snapshot struct {
	Symbol    string
	Seq       uint64
	TimeNanos int64
	Bids      [DepthLevels]Level
	Asks      [DepthLevels]Level
	LastTrade int64
}

// TakeSnapshot captures the current top DepthLevels levels of the book.
// timeNanos is the event timestamp assigned by the caller (exchange clock in
// simulation, wall clock on a live feed).
func (b *Book) TakeSnapshot(timeNanos int64) (s Snapshot) {
	b.SnapshotInto(&s, timeNanos)
	return s
}

// SnapshotInto is TakeSnapshot written into dst: every field of dst is
// set, levels past the book's depth to zero, so a stream can fill each
// snapshot in its own slot with no temporary and no copy. It allocates
// nothing.
func (b *Book) SnapshotInto(dst *Snapshot, timeNanos int64) {
	dst.Symbol, dst.Seq, dst.TimeNanos, dst.LastTrade = b.symbol, b.seq, timeNanos, b.lastTrade
	fillLevels(&dst.Bids, b.bids)
	fillLevels(&dst.Asks, b.asks)
}

// fillLevels writes one side's top levels into dst and zeroes the rest.
func fillLevels(dst *[DepthLevels]Level, side []level) {
	n := min(DepthLevels, len(side))
	for i := range n {
		l := &side[i]
		dst[i] = Level{Price: l.price, Qty: l.qty, Orders: int(l.count)}
	}
	clear(dst[n:])
}

// MidPrice returns the snapshot midpoint, or 0 when either side is empty.
func (s *Snapshot) MidPrice() float64 {
	if s.Bids[0].Price == 0 || s.Asks[0].Price == 0 {
		return 0
	}
	return float64(s.Bids[0].Price+s.Asks[0].Price) / 2
}

// Features flattens the snapshot into the 4*DepthLevels raw feature vector
// consumed by the offload engine: (askPrice, askQty, bidPrice, bidQty) per
// level, the layout used by DeepLOB and TransLOB.
func (s *Snapshot) Features() [4 * DepthLevels]float64 {
	var f [4 * DepthLevels]float64
	for i := 0; i < DepthLevels; i++ {
		f[4*i+0] = float64(s.Asks[i].Price)
		f[4*i+1] = float64(s.Asks[i].Qty)
		f[4*i+2] = float64(s.Bids[i].Price)
		f[4*i+3] = float64(s.Bids[i].Qty)
	}
	return f
}
