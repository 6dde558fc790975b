package tensor

import "fmt"

// panel is the kernel MulAddPanel runs: panelGo, or on an amd64 CPU with
// AVX2 the assembly (chosen once at start-up, see panel_amd64.go). The two
// agree on every output bit, so which one runs is not observable in a result.
var panel = panelGo

// MulAddPanel computes c[j] += Σ_p a[p]·b[p·ldb+j] for j < len(c) and
// p < len(a): a row vector times a row-major [len(a), ≥len(c)] panel of b
// whose rows are ldb apart. A layer that computes x·Wᵀ keeps Wᵀ in this
// layout so that the outputs of one step lie side by side in memory.
//
// Each output continues its single float32 chain from the value already in
// c, in ascending p, no term skipped. The kernel is vectorised across
// outputs and never across the reduction: a SIMD lane runs the very chain a
// scalar loop runs — the assembly rounds every product before adding it, as
// Go's amd64 code does, and never fuses the two — so the assembly, the
// portable kernel and a naive loop agree bit for bit, and from a zeroed c
// the result is the sequential dot product a·b[:,j] to the bit.
func MulAddPanel(a, b []float32, ldb int, c []float32) {
	k, n := len(a), len(c)
	if k == 0 || n == 0 {
		return
	}
	if ldb < n || len(b) < (k-1)*ldb+n {
		panic(fmt.Sprintf("tensor: panel of %d floats, rows %d apart, is short of [%d,%d]", len(b), ldb, k, n))
	}
	panel(a, b, ldb, c)
}

// panelGo is the portable panel kernel: c kept in memory and row p of the
// panel added to it scaled by a[p]. (Sums held in registers four or eight
// outputs at a time were no faster in Go.)
func panelGo(a, b []float32, ldb int, c []float32) {
	for p, av := range a {
		axpy(av, b[p*ldb:p*ldb+len(c)], c)
	}
}

// axpy computes y += a·x over equal-length slices, 8-way unrolled: the
// portable kernel's row step, and Axpy's body.
func axpy(a float32, x, y []float32) {
	i := 0
	for ; i+8 <= len(y); i += 8 {
		xx := x[i : i+8 : i+8]
		yy := y[i : i+8 : i+8]
		yy[0] += a * xx[0]
		yy[1] += a * xx[1]
		yy[2] += a * xx[2]
		yy[3] += a * xx[3]
		yy[4] += a * xx[4]
		yy[5] += a * xx[5]
		yy[6] += a * xx[6]
		yy[7] += a * xx[7]
	}
	for ; i < len(y); i++ {
		y[i] += a * x[i]
	}
}
