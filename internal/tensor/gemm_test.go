package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceMatMul is the pre-optimization naive triple loop, retained as
// the golden reference for the blocked/parallel backend.
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

// referenceGemm is a scalar-order c = alpha·op(a)·b + beta·c.
func referenceGemm(alpha float32, a *Tensor, ta bool, b *Tensor, beta float32, c *Tensor) {
	m, n := c.Dim(0), c.Dim(1)
	k := a.Dim(1)
	if ta {
		k = a.Dim(0)
	}
	at := func(i, p int) float32 {
		if ta {
			return a.At2(p, i)
		}
		return a.At2(i, p)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += at(i, p) * b.At2(p, j)
			}
			c.Set2(i, j, alpha*s+beta*c.At2(i, j))
		}
	}
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.FillRandn(rng, 1)
	return t
}

// closeEnough checks |a-b| ≤ atol + rtol·max(|a|,|b|), the documented
// float-tolerance policy for reordered float32 accumulation.
func closeEnough(a, b, atol, rtol float32) bool {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	m := math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	return d <= float64(atol)+float64(rtol)*m
}

// TestMatMulMatchesReference: the no-transpose path preserves the naive
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

// TestGemmMatchesReference sweeps random shapes, both orientations of a and
// alpha/beta over the full GEMM surface.
func TestGemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphas := []float32{1, 0.5, -1.25, 0}
	betas := []float32{0, 1, 0.5, -2}
	for i := 0; i < 600; i++ {
		m, k, n := 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(30)
		ta := rng.Intn(2) == 1
		alpha := alphas[rng.Intn(len(alphas))]
		beta := betas[rng.Intn(len(betas))]
		a := randTensor(rng, m, k)
		if ta {
			a = randTensor(rng, k, m)
		}
		b := randTensor(rng, k, n)
		c := randTensor(rng, m, n)
		want := c.Clone()
		Gemm(alpha, a, ta, b, beta, c)
		referenceGemm(alpha, a, ta, b, beta, want)
		for j, v := range want.Data() {
			if !closeEnough(c.Data()[j], v, 1e-4, 1e-4) {
				t.Fatalf("case %d (m%d k%d n%d ta%v α%v β%v): elem %d = %v, want %v",
					i, m, k, n, ta, alpha, beta, j, c.Data()[j], v)
			}
		}
	}
}

// TestGemmParallelMatchesSerial forces the worker-pool path and checks it
// is bit-identical to the serial kernel for several worker counts and
// block sizes.
func TestGemmParallelMatchesSerial(t *testing.T) {
	defer SetWorkers(0)
	defer SetBlockSize(128)
	defer SetParallelThreshold(4 << 20)

	rng := rand.New(rand.NewSource(14))
	a, b := randTensor(rng, 67, 129), randTensor(rng, 129, 93)
	SetWorkers(1)
	want := MatMul(a, b)

	SetParallelThreshold(1) // force the pool for any size
	for _, workers := range []int{2, 3, 8, 64} {
		for _, bs := range []int{8, 32, 512} {
			SetWorkers(workers)
			SetBlockSize(bs)
			got := MatMul(a, b)
			for j, v := range want.Data() {
				if got.Data()[j] != v {
					t.Fatalf("workers=%d block=%d: elem %d = %v, want %v (parallel must be bit-identical)",
						workers, bs, j, got.Data()[j], v)
				}
			}
		}
	}
}

// TestMulAddNTMatchesNaive: the strided kernel continues each output's one
// chain from c in ascending p, so a naive loop doing exactly that must agree
// bit for bit — over overlapping b rows (ldb < k, down to 0), padded a and c
// rows, a non-zero starting c, and odd m and n for the self-paired last
// row and column. Elements of c between the rows must not be touched, and
// the chain must match the no-transpose Gemm over the materialised bᵀ.
func TestMulAddNTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for it := 0; it < 400; it++ {
		m, n, k := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(40)
		lda, ldb, ldc := k+rng.Intn(4), rng.Intn(k+4), n+rng.Intn(3)
		a := randTensor(rng, m*lda).Data()
		b := randTensor(rng, (n-1)*ldb+k).Data()
		c := randTensor(rng, m*ldc).Data()
		if it%4 == 0 {
			clear(c)
		}
		want := append([]float32(nil), c...)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := want[i*ldc+j]
				for p := 0; p < k; p++ {
					s += a[i*lda+p] * b[j*ldb+p]
				}
				want[i*ldc+j] = s
			}
		}
		MulAddNT(m, n, k, a, lda, b, ldb, c, ldc)
		for i, w := range want {
			if math.Float32bits(c[i]) != math.Float32bits(w) {
				t.Fatalf("m=%d n=%d k=%d lda=%d ldb=%d ldc=%d: c[%d] = %v, want %v", m, n, k, lda, ldb, ldc, i, c[i], w)
			}
		}
		if it%4 != 0 {
			continue
		}
		// From a zero c this is MatMulInto(W, bᵀ) to the bit.
		av, bt := New(m, k), New(k, n)
		for i := 0; i < m; i++ {
			copy(av.Data()[i*k:(i+1)*k], a[i*lda:i*lda+k])
		}
		for j := 0; j < n; j++ {
			for p := 0; p < k; p++ {
				bt.Set2(p, j, b[j*ldb+p])
			}
		}
		g := New(m, n)
		MatMulInto(g, av, bt)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Float32bits(g.At2(i, j)) != math.Float32bits(c[i*ldc+j]) {
					t.Fatalf("m=%d n=%d k=%d: [%d,%d] = %v, MatMulInto gives %v", m, n, k, i, j, c[i*ldc+j], g.At2(i, j))
				}
			}
		}
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

func TestGemmShapeMismatchPanics(t *testing.T) {
	for _, tc := range []func(){
		func() { Gemm(1, New(2, 3), false, New(4, 5), 0, New(2, 5)) },
		func() { Gemm(1, New(2, 3), false, New(3, 5), 0, New(2, 4)) },
		func() { Gemm(1, New(2, 3), true, New(3, 5), 0, New(2, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("shape mismatch accepted")
				}
			}()
			tc()
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

// FuzzGemmAgainstReference fuzzes shapes, the orientation of a and scalars
// against the scalar reference within the documented tolerance.
func FuzzGemmAgainstReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(6), false, float32(1), float32(0))
	f.Add(int64(2), uint8(16), uint8(3), uint8(9), true, float32(0.5), float32(1))
	f.Add(int64(3), uint8(7), uint8(7), uint8(7), false, float32(-1), float32(0.25))
	f.Add(int64(4), uint8(1), uint8(31), uint8(2), true, float32(2), float32(-1))
	f.Fuzz(func(t *testing.T, seed int64, m8, k8, n8 uint8, ta bool, alpha, beta float32) {
		m, k, n := int(m8%32)+1, int(k8%32)+1, int(n8%32)+1
		if math.IsNaN(float64(alpha)) || math.IsNaN(float64(beta)) ||
			math.Abs(float64(alpha)) > 100 || math.Abs(float64(beta)) > 100 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a := randTensor(rng, m, k)
		if ta {
			a = randTensor(rng, k, m)
		}
		b := randTensor(rng, k, n)
		c := randTensor(rng, m, n)
		want := c.Clone()
		Gemm(alpha, a, ta, b, beta, c)
		referenceGemm(alpha, a, ta, b, beta, want)
		for j, v := range want.Data() {
			if !closeEnough(c.Data()[j], v, 1e-3, 1e-3) {
				t.Fatalf("elem %d = %v, want %v (m%d k%d n%d ta%v)", j, c.Data()[j], v, m, k, n, ta)
			}
		}
	})
}

// BenchmarkMatMul tracks the GEMM kernel across sizes (BENCH_kernels.json).
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
