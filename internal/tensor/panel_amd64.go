package tensor

// panelAVX2 is the assembly half of the panel kernel (panel_amd64.s): it
// continues the chains of c[:8·blocks] over all k ≥ 1 rows of b.
//
//go:noescape
func panelAVX2(a *float32, k int, b *float32, ldb int, c *float32, blocks int)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state
// across context switches (OSXSAVE set and XCR0 enabling both XMM and YMM).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func init() {
	if hasAVX2() {
		panel = panelAsm
	}
}

// panelAsm runs the 8-wide blocks of c in assembly and leaves the last
// len(c)%8 outputs to the portable kernel.
func panelAsm(a, b []float32, ldb int, c []float32) {
	n8 := len(c) &^ 7
	if n8 > 0 {
		panelAVX2(&a[0], len(a), &b[0], ldb, &c[0], n8/8)
	}
	if n8 < len(c) {
		panelGo(a, b[n8:], ldb, c[n8:])
	}
}
