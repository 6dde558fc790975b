package nn

import (
	"bytes"
	"sync"
	"unsafe"

	"lighttrader/internal/tensor"
)

// slideMemo is a layer's sliding-window memo: its last input and its last
// stride-1 result — a convolution's output after bias and activation, or a
// pool's max of every stride-1 window — with the lock that makes the layer
// follow one caller at a time. Both are copies (x and the output are the
// caller's to reuse), each kept as a rowRing, so that an input which is the
// last one moved up a row costs one row per channel of each to record. in and out are nil until a full pass is kept,
// and again after a drop.
type slideMemo struct {
	mu           sync.Mutex
	in, out      *rowRing
	hits, misses uint64 // calls answered by slide / by a full pass
}

// shifted reports whether x is the kept input moved up a row: rows [0,H−1)
// of every channel of x are the kept rows [1,H). The rows are compared as
// bytes, not as floats: equal bits give equal results, whereas == would take
// −0 for +0 and refuse a NaN row that did not change. One memequal per
// channel costs a hundredth of the rows it saves.
func (m *slideMemo) shifted(x *tensor.Tensor) bool {
	r := m.in
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	if r == nil || r.c != c || r.h != h || r.w != w {
		return false
	}
	xf := x.Data()
	for i := 0; i < c; i++ {
		if !sameBits(xf[i*h*w:(i+1)*h*w-w], r.channel(i)[w:]) {
			return false
		}
	}
	return true
}

// slide records x, which shifted has found to be the kept input moved up a
// row, and next, the last row of every channel of the result that goes with
// it: m.out then holds that whole result.
func (m *slideMemo) slide(x *tensor.Tensor, next []float32) {
	m.in.push(x.Data())
	m.out.push(next)
	m.hits++
}

// keep records x and res, the [c,h,w] stride-1 result a full pass computed
// from it.
func (m *slideMemo) keep(x *tensor.Tensor, res []float32, c, h, w int) {
	if m.in == nil {
		m.in, m.out = new(rowRing), new(rowRing)
	}
	m.in.set(x.Data(), x.Dim(0), x.Dim(1), x.Dim(2))
	m.out.set(res, c, h, w)
	m.misses++
}

// drop forgets the kept input and result.
func (m *slideMemo) drop() {
	m.mu.Lock()
	m.in, m.out = nil, nil
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

// push moves the kept tensor up a row. x holds the new rows as c equal
// parts, one per channel, whose last w floats are that channel's new last
// row: an input of the kept shape, or one row per channel.
func (r *rowRing) push(x []float32) {
	part, hw := len(x)/r.c, r.h*r.w
	for i := 0; i < r.c; i++ {
		row := x[(i+1)*part-r.w : (i+1)*part]
		copy(r.data[2*i*hw+(r.s+r.h)*r.w:], row)
		copy(r.data[2*i*hw+r.s*r.w:], row)
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

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	return bytes.Equal(
		unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), 4*len(a)),
		unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), 4*len(b)))
}
