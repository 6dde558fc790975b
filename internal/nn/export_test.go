package nn

// MemoCounts reports how many forward passes l's sliding-window memo answered
// from the kept output (hits) and how many ran in full under it (misses). ok
// is false when l is not a convolution that keeps a memo.
func MemoCounts(l Layer) (hits, misses uint64, ok bool) {
	c, isConv := l.(*Conv2D)
	if !isConv || c.memo == nil {
		return 0, 0, false
	}
	c.memo.mu.Lock()
	defer c.memo.mu.Unlock()
	return c.memo.hits, c.memo.misses, true
}
