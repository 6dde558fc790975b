package nn

// MemoPos returns the answer position of l's sliding-window memo. A call the
// memo answers from what it kept (a hit) moves it by one, a call that runs
// the full pass under the memo (a miss) by two, and a call that runs beside
// the memo not at all. ok is false when l is not a convolution or pool that
// keeps a memo.
func MemoPos(l Layer) (pos uint64, ok bool) {
	var m *slideMemo
	switch l := l.(type) {
	case *Conv2D:
		m = l.memo
	case *MaxPool2D:
		m = l.memo
	}
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pos, true
}

// MemoTally counts, call by call, the hits and misses of some layers' memos
// from how far each call moved their answer positions (MemoPos). Observe
// after every call; Odd counts the observations in which some position
// moved by more than one call can move it.
type MemoTally struct {
	layers       []Layer
	pos          []uint64
	Hits, Misses []uint64 // per layer
	Odd          int
}

// NewMemoTally starts a tally of layers' memos at their current positions.
func NewMemoTally(layers ...Layer) *MemoTally {
	c := &MemoTally{layers: layers, pos: make([]uint64, len(layers)),
		Hits: make([]uint64, len(layers)), Misses: make([]uint64, len(layers))}
	for i, l := range layers {
		c.pos[i], _ = MemoPos(l)
	}
	return c
}

// Observe classifies the one call made since the last observation.
func (c *MemoTally) Observe() {
	for i, l := range c.layers {
		pos, _ := MemoPos(l)
		switch pos - c.pos[i] {
		case 0:
		case 1:
			c.Hits[i]++
		case 2:
			c.Misses[i]++
		default:
			c.Odd++
		}
		c.pos[i] = pos
	}
}
