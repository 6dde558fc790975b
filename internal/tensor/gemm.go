package tensor

import "fmt"

// The multiplies behind every layer are one kernel, MulAddPanel (panel.go):
// MatMulInto runs it once per output row, and a layer that computes x·Wᵀ —
// a dense layer, an LSTM step, a full-width convolution's row — keeps Wᵀ
// packed and calls it itself. All of them are serial, and each output is one
// float32 chain in ascending k.

// Axpy computes y += a·x in place. The slices must have equal length.
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if a == 0 {
		return
	}
	axpy(a, x, y)
}

// dot computes x·y with four independent accumulator chains.
func dot(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xx := x[i : i+4 : i+4]
		yy := y[i : i+4 : i+4]
		s0 += xx[0] * yy[0]
		s1 += xx[1] * yy[1]
		s2 += xx[2] * yy[2]
		s3 += xx[3] * yy[3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Dot returns the inner product of two equal-length slices.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(x), len(y)))
	}
	return dot(x, y)
}

// MatMulInto computes dst = a×b for rank-2 tensors [m,k]×[k,n] → [m,n],
// reusing dst's storage (dst must already have shape [m,n] and must not
// alias a or b). Row i of dst is cleared and then MulAddPanel(a[i,:], b),
// so each output is the sequential dot product of a row of a with a column
// of b, from +0 in ascending k, no term skipped — the naive triple loop to
// the bit. A 0·±Inf or 0·NaN term therefore makes that output NaN.
func MatMulInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: matmul wants rank-2 operands, got %v × %v → %v", a.shape, b.shape, dst.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v × %v → %v", a.shape, b.shape, dst.shape))
	}
	clear(dst.data)
	for i := 0; i < m; i++ {
		MulAddPanel(a.data[i*k:(i+1)*k], b.data, n, dst.data[i*n:(i+1)*n])
	}
}
