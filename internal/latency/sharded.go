package latency

import "sync"

// Sharded is a histogram split across N independently locked shards — the
// package's shard-and-merge contract packaged for callers with a natural
// shard index (one per worker goroutine). Record contends only within a
// shard; Summarize merges the shards exactly at read time.
type Sharded struct {
	shards []shardedPart
}

// shardedPart pads each histogram with its own mutex.
type shardedPart struct {
	mu sync.Mutex
	h  Histogram
}

// NewSharded builds a sharded histogram with n shards (minimum 1).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	return &Sharded{shards: make([]shardedPart, n)}
}

// Record adds one duration to the given shard. Callers with one goroutine
// per shard never contend; the lock only serialises against Summarize.
func (s *Sharded) Record(shard int, ns int64) {
	p := &s.shards[shard%len(s.shards)]
	p.mu.Lock()
	p.h.Record(ns)
	p.mu.Unlock()
}

// Summarize merges all shards and digests the result.
func (s *Sharded) Summarize() Summary {
	var merged Histogram
	for i := range s.shards {
		p := &s.shards[i]
		p.mu.Lock()
		merged.Merge(&p.h)
		p.mu.Unlock()
	}
	return merged.Summarize()
}
