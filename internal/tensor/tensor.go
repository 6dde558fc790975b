package tensor

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Tensor is a dense row-major float32 tensor of arbitrary rank, with an
// optional stream stamp (SetStamp).
type Tensor struct {
	shape    []int
	data     []float32
	src, pos uint64 // stream stamp; src 0 means unstamped
}

// checkedSize returns the element count of shape, or a negative value if
// any dimension is non-positive. Panic formatting happens in the callers
// on an already-escaping copy of the shape, so passing a stack-built
// variadic slice here never forces it to the heap.
func checkedSize(shape []int) int {
	n := 1
	bad := false
	for _, d := range shape {
		if d <= 0 {
			bad = true
		}
		n *= d
	}
	if bad {
		return -1
	}
	return n
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkedSize(shape)
	sh := append([]int(nil), shape...)
	if n < 0 {
		panic(fmt.Sprintf("tensor: non-positive dimension %v", sh))
	}
	return &Tensor{shape: sh, data: make([]float32, n)}
}

// FromSlice wraps data with the given shape; data is not copied.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkedSize(shape)
	sh := append([]int(nil), shape...)
	if n < 0 {
		panic(fmt.Sprintf("tensor: non-positive dimension %v", sh))
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, have %d", sh, n, len(data)))
	}
	return &Tensor{shape: sh, data: data}
}

// Shape returns the tensor's dimensions. The slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total element count.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice (row-major).
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return FromSlice(d, t.shape...)
}

// Reshape returns a view with a new shape sharing the same data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// stampSources hands out stream source ids.
var stampSources atomic.Uint64

// NewStampSource returns a stream source id no other call in the process
// returns. It is never 0, the source of an unstamped tensor.
func NewStampSource() uint64 { return stampSources.Add(1) }

// SetStamp stamps t as position pos of stream src; src 0 clears the stamp.
// Whoever stamps a tensor promises two things. First, in every channel (the
// first dimension), the tensor stamped (src, pos+1) is the tensor stamped
// (src, pos) moved up one row (the second dimension), plus one new last row.
// Second, t's data does not change while it carries the stamp. A layer that
// keeps a sliding-window memo trusts the promise instead of comparing rows.
// New, FromSlice, Pool handouts, Clone and Reshape return unstamped tensors.
func (t *Tensor) SetStamp(src, pos uint64) { t.src, t.pos = src, pos }

// Stamp returns t's stream stamp; src is 0 when t is unstamped.
func (t *Tensor) Stamp() (src, pos uint64) { return t.src, t.pos }

// At2 reads element (i,j) of a rank-2 tensor.
func (t *Tensor) At2(i, j int) float32 { return t.data[i*t.shape[1]+j] }

// At3 reads element (c,h,w) of a rank-3 tensor.
func (t *Tensor) At3(c, h, w int) float32 {
	return t.data[(c*t.shape[1]+h)*t.shape[2]+w]
}

// Set3 writes element (c,h,w) of a rank-3 tensor.
func (t *Tensor) Set3(c, h, w int, v float32) {
	t.data[(c*t.shape[1]+h)*t.shape[2]+w] = v
}

// FillRandn fills the tensor with N(0, std²) values from rng.
func (t *Tensor) FillRandn(rng *rand.Rand, std float64) {
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64() * std)
	}
}

// RoundBF16 rounds every element through BF16 precision in place and
// returns the tensor for chaining.
func (t *Tensor) RoundBF16() *Tensor {
	RoundSliceBF16(t.data)
	return t
}

// AddInPlace adds b element-wise into a.
func AddInPlace(a, b *Tensor) {
	if len(a.data) != len(b.data) {
		panic("tensor: add size mismatch")
	}
	for i := range a.data {
		a.data[i] += b.data[i]
	}
}

// Softmax computes the softmax over the last dimension of a rank-1 or
// rank-2 tensor, returning a new tensor.
func Softmax(t *Tensor) *Tensor {
	out := New(t.shape...)
	SoftmaxInto(out, t)
	return out
}

// Argmax returns the index of the maximum element.
func Argmax(t *Tensor) int {
	best, bestV := 0, t.data[0]
	for i, v := range t.data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
