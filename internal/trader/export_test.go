package trader

// Recovering reports whether the feed has declared a gap (the external
// scenario tests read it).
func (t *MultiTrader) Recovering() bool {
	t.feedMu.Lock()
	defer t.feedMu.Unlock()
	return t.arb.Recovering()
}
