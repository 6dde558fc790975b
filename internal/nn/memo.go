package nn

import (
	"sync"

	"lighttrader/internal/tensor"
)

// slideMemo is a layer's sliding-window memo: the stamp and shape of its last
// input and the results that go with it, with the lock that makes the layer
// follow one caller at a time. The results are copies (the output is the
// caller's to reuse), kept as rowRings, so that an input which is the kept
// one moved up a row costs one row per channel to record. The memo learns
// that from the input's stream stamp (tensor.SetStamp), never by comparing
// rows: an unstamped input runs the full pass beside the memo and leaves it
// as it was.
type slideMemo struct {
	mu           sync.Mutex
	inSrc, inPos uint64 // the kept input's stamp
	c, h, w      int    // the kept input's shape
	// out keeps one result per phase of the input position, for a layer
	// whose output moves up one row for every len(out) rows its input does —
	// a convolution keeps one, a pool of stride SH keeps SH. out[n mod
	// len(out)] is the answer to the input at position n, and until that
	// call the answer at n−len(out), which is the same moved up a row but
	// for the new last row. Empty until a full pass is kept, and again after
	// a drop.
	out []rowRing
	// src stamps the layer's answers, where they move up a row with the
	// input: pos advances by one on a hit, whose answer is the last one moved
	// up a row, and by two on a miss, so that a memo layer downstream misses
	// with it.
	src, pos uint64
}

// newSlideMemo returns an empty memo with a stamp source of its own.
func newSlideMemo() *slideMemo { return &slideMemo{src: tensor.NewStampSource()} }

// enter reports whether the call on x runs under the memo — x is stamped and
// no other caller holds the memo — and if so takes the lock, which the caller
// releases. A nil memo is never entered.
func (m *slideMemo) enter(x *tensor.Tensor) bool {
	if m == nil {
		return false
	}
	src, _ := x.Stamp()
	return src != 0 && m.mu.TryLock()
}

// next reports whether x is the kept input moved up a row: x is stamped
// (s, n+1) and has the kept shape, where the kept input was stamped (s, n).
func (m *slideMemo) next(x *tensor.Tensor) bool {
	src, pos := x.Stamp()
	return len(m.out) > 0 && src == m.inSrc && pos == m.inPos+1 &&
		x.Dim(0) == m.c && x.Dim(1) == m.h && x.Dim(2) == m.w
}

// slide records x, which next has found to be the kept input moved up a row,
// and last, the new last row of every channel of its answer, and returns the
// ring that then holds the whole answer.
func (m *slideMemo) slide(x *tensor.Tensor, last []float32) *rowRing {
	_, m.inPos = x.Stamp()
	r := m.ring(m.inPos)
	r.push(last)
	m.pos++
	return r
}

// keep records x, whose answer a full pass computed, and makes room for
// phases results, which the caller then sets: it returns the ring for x's
// answer, and ring reaches the others.
func (m *slideMemo) keep(x *tensor.Tensor, phases int) *rowRing {
	m.inSrc, m.inPos = x.Stamp()
	m.c, m.h, m.w = x.Dim(0), x.Dim(1), x.Dim(2)
	if cap(m.out) < phases {
		m.out = make([]rowRing, phases)
	}
	m.out = m.out[:phases]
	m.pos += 2
	return m.ring(m.inPos)
}

// ring returns the result kept for the input at position n.
func (m *slideMemo) ring(n uint64) *rowRing { return &m.out[n%uint64(len(m.out))] }

// stamp stamps out, the answer to the call slide or keep recorded, with the
// layer's own source.
func (m *slideMemo) stamp(out *tensor.Tensor) { out.SetStamp(m.src, m.pos) }

// drop forgets the kept results.
func (m *slideMemo) drop() {
	m.mu.Lock()
	m.out = m.out[:0]
	m.mu.Unlock()
}

// rowRing keeps a [c,h,w] tensor as c doubled rings of h rows of w floats.
// Channel i owns 2h row slots, data[i·2h·w : (i+1)·2h·w], and its rows are
// slots [s, s+h) in order. push moves the tensor up a row — every channel
// loses its first row and gains a new last one — by writing the new row to
// slot s+h, and to slot s for when the window wraps, then advancing s: one
// row per channel, and each channel still reads as one contiguous run.
type rowRing struct {
	c, h, w, s int
	data       []float32
}

// set keeps x, a [c,h,w] tensor. It fills slots [0,h) only: slot h+j is
// first read once s > j, and by then push j+1 has written it.
func (r *rowRing) set(x []float32, c, h, w int) {
	if n := 2 * c * h * w; cap(r.data) < n {
		r.data = make([]float32, n)
	} else {
		r.data = r.data[:n]
	}
	r.c, r.h, r.w, r.s = c, h, w, 0
	for i := 0; i < c; i++ {
		copy(r.data[2*i*h*w:], x[i*h*w:(i+1)*h*w])
	}
}

// push moves the kept tensor up a row. row holds the c new last rows, one
// per channel. A row of one float (a single-column conv or pool, what every
// SizedCNN memo keeps) is two stores, not two copy calls.
func (r *rowRing) push(row []float32) {
	hw := r.h * r.w
	if r.w == 1 {
		for i, v := range row[:r.c] {
			r.data[2*i*hw+r.s+r.h] = v
			r.data[2*i*hw+r.s] = v
		}
	} else {
		for i := 0; i < r.c; i++ {
			next := row[i*r.w : (i+1)*r.w]
			copy(r.data[2*i*hw+(r.s+r.h)*r.w:], next)
			copy(r.data[2*i*hw+r.s*r.w:], next)
		}
	}
	if r.s++; r.s == r.h {
		r.s = 0
	}
}

// channel returns channel i's h rows, in order.
func (r *rowRing) channel(i int) []float32 {
	at := (2*i*r.h + r.s) * r.w
	return r.data[at : at+r.h*r.w]
}
