package tensor

import "fmt"

// The multiplies behind every layer. MatMulInto runs the panel kernel
// (panel.go) once per output row; a layer that computes x·Wᵀ keeps Wᵀ packed
// and calls MulAddPanel itself; a convolution over overlapping rows calls
// MulAddNT. All of them are serial, and each output is one float32 chain in
// ascending k.

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

// mac2x2 is MulAddNT's register tile: it continues the four chains sIJ of
// rows a0, a1 against rows b0, b1 (all of b0's length) in ascending p. It is
// a function of its own so that the accumulators and row pointers are all
// the register allocator has to keep across the loop.
func mac2x2(a0, a1, b0, b1 []float32, s00, s01, s10, s11 float32) (_, _, _, _ float32) {
	a0, a1, b1 = a0[:len(b0)], a1[:len(b0)], b1[:len(b0)]
	for p, v0 := range b0 {
		v1 := b1[p]
		w := a0[p]
		s00 += w * v0
		s01 += w * v1
		w = a1[p]
		s10 += w * v0
		s11 += w * v1
	}
	return s00, s01, s10, s11
}

// MulAddNT computes c[i·ldc+j] += Σ_p a[i·lda+p]·b[j·ldb+p] for i < m,
// j < n, p < k over raw row-major slices with explicit leading dimensions,
// so rows of b may overlap (ldb < k): the full-width convolution reads its
// patches straight out of the input that way.
//
// Each output continues its single float32 accumulation chain from the
// value already in c, in ascending p. That makes the result bit-identical
// to MatMulInto over a materialised bᵀ (same products, same order, one
// chain), and lets a caller split k across several calls — one per input
// channel, say — without re-associating the sum.
//
// The kernel is register-tiled 2 rows of a × 2 rows of b, four accumulators
// fed by four loads per p; an odd last row or column is paired with itself,
// which computes (and stores) the same chain twice.
func MulAddNT(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if k <= 0 {
		return
	}
	for i := 0; i < m; i += 2 {
		i1 := min(i+1, m-1)
		a0, a1 := a[i*lda:i*lda+k], a[i1*lda:i1*lda+k]
		c0, c1 := c[i*ldc:i*ldc+n], c[i1*ldc:i1*ldc+n]
		for j := 0; j < n; j += 2 {
			j1 := min(j+1, n-1)
			c0[j], c0[j1], c1[j], c1[j1] = mac2x2(a0, a1, b[j*ldb:j*ldb+k], b[j1*ldb:j1*ldb+k],
				c0[j], c0[j1], c1[j], c1[j1])
		}
	}
}
