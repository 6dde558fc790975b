package feed

// ArrivalProcess generates a strictly increasing sequence of event times in
// nanoseconds. Hawkes and Mixture implement it.
type ArrivalProcess interface {
	NextNanos() int64
}

// Mixture superposes independent arrival processes into one arrival
// stream. Real tick traffic is multi-scale: routine quoting produces
// moderate clustering while cascade events (stop runs, sweep-triggered
// reactions, §II-C's "even a small number of orders can trigger a massive
// number of orders") produce rare near-critical bursts. A single Hawkes
// kernel cannot carry both tails; a two-component mixture can.
type Mixture struct {
	procs []ArrivalProcess
	next  []int64
	last  int64
}

// NewProcessMixture superposes arbitrary arrival processes (Hawkes
// components, flash-event processes, replayed traces, …).
func NewProcessMixture(procs []ArrivalProcess) *Mixture {
	if len(procs) == 0 {
		panic("feed: empty mixture")
	}
	m := &Mixture{procs: procs, next: make([]int64, len(procs))}
	for i, p := range procs {
		m.next[i] = p.NextNanos()
	}
	return m
}

// NextNanos returns the next event time across all components.
func (m *Mixture) NextNanos() int64 {
	best := 0
	for i := 1; i < len(m.next); i++ {
		if m.next[i] < m.next[best] {
			best = i
		}
	}
	t := m.next[best]
	m.next[best] = m.procs[best].NextNanos()
	if t <= m.last {
		t = m.last + 1
	}
	m.last = t
	return t
}
