package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceMatMul is the pre-optimization naive triple loop, retained as
// the golden reference for MatMul and MatMulInto.
func referenceMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data()[i*k : (i+1)*k]
		orow := out.Data()[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data()[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// blockedMatMul is the kernel MatMulInto ran before it was a loop over
// MulAddPanel — the serial path of the old GEMM backend at alpha = 1,
// beta = 0: c cleared, k split into blocks of kc rows, and within a block
// each row of c accumulating axpy(a[i,p], b[p,:]) in ascending p, zero
// a-elements skipped. Kept as the oracle MatMulInto is held to bit for bit.
func blockedMatMul(a, b, c []float32, m, n, k, kc int) {
	clear(c[:m*n])
	for kk := 0; kk < k; kk += kc {
		kend := min(kk+kc, k)
		for i := 0; i < m; i++ {
			crow := c[i*n : (i+1)*n]
			for p, av := range a[i*k+kk : i*k+kend] {
				if av == 0 {
					continue
				}
				bp := (kk + p) * n
				axpy(av, b[bp:bp+n], crow)
			}
		}
	}
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.FillRandn(rng, 1)
	return t
}

// TestMatMulMatchesReference: MatMul runs each output as the naive
// per-element accumulation order, so it must be bit-identical.
func TestMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		got, want := MatMul(a, b), referenceMatMul(a, b)
		for j, v := range want.Data() {
			if got.Data()[j] != v {
				t.Fatalf("case %d [%d,%d,%d]: elem %d = %v, want %v (must be bit-identical)",
					i, m, k, n, j, got.Data()[j], v)
			}
		}
	}
}

// TestMatMulBF16MatchesReference covers the BF16 rounding path: inputs
// rounded through BF16 must still produce bit-identical no-transpose
// products, and rounding the product commutes with either implementation.
func TestMatMulBF16MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		m, k, n := 1+rng.Intn(24), 1+rng.Intn(24), 1+rng.Intn(24)
		a, b := randTensor(rng, m, k).RoundBF16(), randTensor(rng, k, n).RoundBF16()
		got := MatMul(a, b).RoundBF16()
		want := referenceMatMul(a, b).RoundBF16()
		for j, v := range want.Data() {
			if got.Data()[j] != v {
				t.Fatalf("case %d: BF16 elem %d = %v, want %v", i, j, got.Data()[j], v)
			}
		}
	}
}

// TestMatMulIntoMatchesBlockedKernel: MatMulInto gives the old blocked
// kernel's bits on every panel kernel this host runs — k across the old
// 128-row block edge, n across the panel's 64/32/8 strip edges, a with
// zeros and −0 (the terms the old kernel skipped) and denormals in both
// operands, and a stale non-zero dst that must be cleared, not added to.
func TestMatMulIntoMatchesBlockedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	denormals := func(s []float32, share float64) {
		for i := range s {
			if rng.Float64() < share {
				bits := uint32(1 + rng.Intn(1<<23-1)) // exponent field 0: subnormal
				if rng.Intn(2) == 1 {
					bits |= 1 << 31
				}
				s[i] = math.Float32frombits(bits)
			}
		}
	}
	for _, k := range []int{1, 127, 128, 129, 300} {
		for n := 1; n <= 130; n++ {
			m := 1 + rng.Intn(5)
			a, b := New(m, k), New(k, n)
			salted(rng, a.Data(), 0.3, 0)
			salted(rng, b.Data(), 0.02, 0)
			denormals(a.Data(), 0.01)
			denormals(b.Data(), 0.01)
			want := make([]float32, m*n)
			blockedMatMul(a.Data(), b.Data(), want, m, n, k, 128)
			eachPanelKernel(func(name string) {
				dst := New(m, n)
				salted(rng, dst.Data(), 0, 0) // stale contents
				MatMulInto(dst, a, b)
				for j, v := range dst.Data() {
					if math.Float32bits(v) != math.Float32bits(want[j]) {
						t.Fatalf("%s kernel, m=%d k=%d n=%d: [%d,%d] = %v (%#08x), the blocked kernel gives %v (%#08x)",
							name, m, k, n, j/n, j%n, v, math.Float32bits(v), want[j], math.Float32bits(want[j]))
					}
				}
			})
		}
	}
}

// TestMatMulIntoNonFinite states the one place MatMulInto and the blocked
// kernel differ: no term is skipped any more, so a zero in a meeting ±Inf
// or NaN in b puts 0·Inf = NaN into that output's chain — the rule
// MulAddPanel and Dense already follow — where the old kernel skipped the
// term and returned the finite sum. Other outputs are untouched.
func TestMatMulIntoNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		eachPanelKernel(func(name string) {
			a := FromSlice([]float32{2, 0, 1}, 1, 3)
			b := New(3, 9)
			for i := range b.Data() {
				b.Data()[i] = 1
			}
			b.Set2(1, 4, bad) // meets a[0,1] == 0
			dst := New(1, 9)
			MatMulInto(dst, a, b)
			old := make([]float32, 9)
			blockedMatMul(a.Data(), b.Data(), old, 1, 9, 3, 128)
			for j, v := range dst.Data() {
				switch {
				case j == 4 && (v == v || old[j] != 3):
					t.Errorf("%s kernel, b[1,4] = %v: output 4 = %v, blocked kernel %v; want NaN and 3", name, bad, v, old[j])
				case j != 4 && v != 3:
					t.Errorf("%s kernel, b[1,4] = %v: output %d = %v, want 3", name, bad, j, v)
				}
			}
		})
	}
}

func TestMatMulIntoReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a, b := randTensor(rng, 8, 5), randTensor(rng, 5, 7)
	dst := New(8, 7)
	dst.Data()[0] = 42 // stale contents must be overwritten
	MatMulInto(dst, a, b)
	want := referenceMatMul(a, b)
	for j, v := range want.Data() {
		if dst.Data()[j] != v {
			t.Fatalf("elem %d = %v, want %v", j, dst.Data()[j], v)
		}
	}
}

func TestMatMulIntoShapeMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"inner dims":   func() { MatMulInto(New(2, 5), New(2, 3), New(4, 5)) },
		"dst columns":  func() { MatMulInto(New(2, 4), New(2, 3), New(3, 5)) },
		"dst rows":     func() { MatMulInto(New(3, 5), New(2, 3), New(3, 5)) },
		"dst rank":     func() { MatMulInto(New(10), New(2, 3), New(3, 5)) },
		"operand rank": func() { MatMulInto(New(2, 5), New(2, 3, 1), New(3, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestAxpyDot(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	y := make([]float32, len(x))
	for i := range y {
		y[i] = float32(i)
	}
	Axpy(2, x, y)
	for i := range y {
		if want := float32(i) + 2*x[i]; y[i] != want {
			t.Fatalf("axpy[%d] = %v, want %v", i, y[i], want)
		}
	}
	if d := Dot(x, x); d != 385 {
		t.Fatalf("dot = %v, want 385", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	Dot(x, x[:3])
}

func TestSoftmaxInto(t *testing.T) {
	src := FromSlice([]float32{1, 2, 3, 7, 5, 6}, 2, 3)
	want := Softmax(src)
	dst := New(2, 3)
	SoftmaxInto(dst, src)
	for i, v := range want.Data() {
		if dst.Data()[i] != v {
			t.Fatalf("elem %d = %v, want %v", i, dst.Data()[i], v)
		}
	}
	// Aliased in-place update.
	SoftmaxInto(src, src)
	for i, v := range want.Data() {
		if src.Data()[i] != v {
			t.Fatalf("in-place elem %d = %v, want %v", i, src.Data()[i], v)
		}
	}
}

func TestAddBias(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	AddBias(m, []float32{10, 20})
	want := []float32{11, 22, 13, 24}
	for i, v := range want {
		if m.Data()[i] != v {
			t.Fatalf("elem %d = %v, want %v", i, m.Data()[i], v)
		}
	}
	v := FromSlice([]float32{1, 2}, 2)
	AddBias(v, []float32{5, 5})
	if v.Data()[0] != 6 || v.Data()[1] != 7 {
		t.Fatalf("rank-1 addbias = %v", v.Data())
	}
}

func TestPoolReuse(t *testing.T) {
	var p Pool
	s1 := p.Get(100)
	if len(s1) != 100 {
		t.Fatalf("len = %d", len(s1))
	}
	for i := range s1 {
		s1[i] = 7
	}
	t1 := p.NewTensor(3, 4)
	if t1.Size() != 12 {
		t.Fatalf("tensor size = %d", t1.Size())
	}
	p.Reset()
	s2 := p.Get(100)
	if &s1[0] != &s2[0] {
		t.Fatal("reset did not recycle storage")
	}
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %v", i, v)
		}
	}
	t2 := p.NewTensor(3, 4)
	if t1 != t2 {
		t.Fatal("reset did not recycle tensor headers")
	}
}

func TestPoolGrowsAndKeepsEarlierBuffers(t *testing.T) {
	var p Pool
	big := p.Get(poolChunkMin + 1) // forces a dedicated chunk
	small := p.Get(16)
	big[0], small[0] = 1, 2
	if big[0] != 1 || small[0] != 2 {
		t.Fatal("buffers alias")
	}
	// Distinct simultaneous buffers must never overlap.
	a, b := p.Get(32), p.Get(32)
	a[31] = 5
	if b[0] == 5 {
		t.Fatal("sequential buffers overlap")
	}
}

func TestPoolViewTensor(t *testing.T) {
	var p Pool
	data := []float32{1, 2, 3, 4, 5, 6}
	v := p.ViewTensor(data, 2, 3)
	if v.At2(1, 2) != 6 {
		t.Fatalf("view wrong: %v", v.Data())
	}
	v.Set2(0, 0, 9)
	if data[0] != 9 {
		t.Fatal("view must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad view shape accepted")
		}
	}()
	p.ViewTensor(data, 7)
}

func TestPoolBadShapePanics(t *testing.T) {
	var p Pool
	defer func() {
		if recover() == nil {
			t.Fatal("bad shape accepted")
		}
	}()
	p.NewTensor(2, 0)
}

// TestFromSliceRejectsNonPositiveDims is the regression test for the
// FromSlice validation gap: a zero dimension with an empty slice used to
// pass the length check and build an invalid tensor.
func TestFromSliceRejectsNonPositiveDims(t *testing.T) {
	for _, shape := range [][]int{{0}, {0, 3}, {3, 0}, {-1, 2}, {2, -2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FromSlice accepted shape %v", shape)
				}
			}()
			n := 1
			for _, d := range shape {
				n *= d
			}
			if n < 0 {
				n = 0
			}
			FromSlice(make([]float32, n), shape...)
		}()
	}
}

// BenchmarkMatMul tracks MatMulInto across sizes.
func BenchmarkMatMul(b *testing.B) {
	for _, size := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("%dx%dx%d", size, size, size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := randTensor(rng, size, size)
			y := randTensor(rng, size, size)
			dst := New(size, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, x, y)
			}
		})
	}
}
