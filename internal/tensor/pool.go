package tensor

import "fmt"

// Pool is a bump-allocating scratch arena for the inference hot path. It
// hands out zeroed []float32 buffers and reusable Tensor headers from a
// small set of backing chunks that grow on demand and are recycled by
// Reset, so a steady-state caller (one Reset per inference) performs zero
// heap allocations once the arena has warmed up.
//
// Lifetime rules:
//   - Every slice, tensor and view obtained from a Pool is valid only
//     until the next Reset; after Reset the storage (and the *Tensor
//     headers themselves) are reused.
//   - A Pool is NOT safe for concurrent use. Use one Pool per goroutine
//     (the intended pattern: one per inference context).
//
// The zero value is ready to use.
type Pool struct {
	chunks [][]float32
	ci     int // chunk currently being carved
	off    int // carve offset within chunks[ci]

	headers []*Tensor
	hi      int // next header to hand out
}

// poolChunkMin is the smallest backing chunk, in float32 elements (64 KiB).
const poolChunkMin = 1 << 14

// Reset recycles the arena: all previously handed out buffers, tensors and
// views become invalid and their storage is reused by subsequent calls.
func (p *Pool) Reset() {
	p.ci, p.off, p.hi = 0, 0, 0
}

// Get returns a zeroed scratch slice of n float32s from the arena.
func (p *Pool) Get(n int) []float32 {
	if n <= 0 {
		return nil
	}
	for p.ci < len(p.chunks) {
		c := p.chunks[p.ci]
		if len(c)-p.off >= n {
			s := c[p.off : p.off+n : p.off+n]
			p.off += n
			clear(s)
			return s
		}
		p.ci++
		p.off = 0
	}
	size := poolChunkMin
	for size < n {
		size <<= 1
	}
	c := make([]float32, size)
	p.chunks = append(p.chunks, c)
	p.ci = len(p.chunks) - 1
	p.off = n
	return c[0:n:n]
}

// header returns a reusable, unstamped Tensor header.
func (p *Pool) header() *Tensor {
	if p.hi < len(p.headers) {
		t := p.headers[p.hi]
		p.hi++
		t.src, t.pos = 0, 0
		return t
	}
	t := &Tensor{}
	p.headers = append(p.headers, t)
	p.hi++
	return t
}

// NewTensor returns a zeroed tensor backed by the arena, shaped like New.
// The variadic shape never escapes (validation formats the header's own
// copy), keeping warmed-pool calls allocation-free.
func (p *Pool) NewTensor(shape ...int) *Tensor {
	n := checkedSize(shape)
	t := p.header()
	t.shape = append(t.shape[:0], shape...)
	if n < 0 {
		panic(fmt.Sprintf("tensor: pool: non-positive dimension %v", t.shape))
	}
	t.data = p.Get(n)
	return t
}

// ViewTensor wraps data in an arena-managed header without copying, like
// FromSlice but with Pool lifetime (the header is recycled on Reset; the
// data is the caller's).
func (p *Pool) ViewTensor(data []float32, shape ...int) *Tensor {
	n := checkedSize(shape)
	t := p.header()
	t.shape = append(t.shape[:0], shape...)
	if n < 0 {
		panic(fmt.Sprintf("tensor: pool: non-positive dimension %v", t.shape))
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: pool: shape %v needs %d elements, have %d", t.shape, n, len(data)))
	}
	t.data = data
	return t
}
