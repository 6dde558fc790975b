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
// the result is the sequential dot product a·b[:,j] to the bit. It is always
// serial: SetWorkers and SetBlockSize do not apply.
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

// panelGo is the portable panel kernel: Gemm's no-transpose row loop, c
// kept in memory and row p of the panel added to it scaled by a[p]. (Sums
// held in registers four or eight outputs at a time were no faster in Go.)
func panelGo(a, b []float32, ldb int, c []float32) {
	for p, av := range a {
		axpy(av, b[p*ldb:p*ldb+len(c)], c)
	}
}
