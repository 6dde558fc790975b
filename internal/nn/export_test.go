package nn

// MemoCounts reports how many forward passes l's sliding-window memo answered
// from what it kept (hits) and how many ran in full under it (misses). ok is
// false when l is not a convolution or pool that keeps a memo.
func MemoCounts(l Layer) (hits, misses uint64, ok bool) {
	var m *slideMemo
	switch l := l.(type) {
	case *Conv2D:
		m = l.memo
	case *MaxPool2D:
		m = l.memo
	}
	if m == nil {
		return 0, 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, true
}
