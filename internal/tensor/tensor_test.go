package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Set2 writes element (i,j) of a rank-2 tensor, beside At2.
func (t *Tensor) Set2(i, j int, v float32) { t.data[i*t.shape[1]+j] = v }

// MatMul returns a×b for rank-2 tensors [m,k]×[k,n] in a new [m,n] tensor:
// MatMulInto, which checks the shapes, over fresh storage.
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.shape[0], b.shape[1])
	MatMulInto(out, a, b)
	return out
}

func TestBF16RoundTripExact(t *testing.T) {
	// Values with ≤7 mantissa bits are exactly representable.
	for _, f := range []float32{0, 1, -1, 0.5, 2, 128, -0.25, 1.5} {
		if got := RoundBF16(f); got != f {
			t.Fatalf("RoundBF16(%v) = %v", f, got)
		}
	}
}

func TestBF16Rounding(t *testing.T) {
	// 1 + 2^-8 is exactly halfway between BF16 neighbours 1.0 and 1+2^-7;
	// round-to-nearest-even must pick 1.0.
	f := float32(1) + float32(1)/256
	if got := RoundBF16(f); got != 1.0 {
		t.Fatalf("halfway rounding = %v, want 1.0", got)
	}
	// 1 + 3·2^-9 rounds up to 1 + 2^-7.
	f = float32(1) + 3*float32(1)/512
	want := float32(1) + float32(1)/128
	if got := RoundBF16(f); got != want {
		t.Fatalf("round up = %v, want %v", got, want)
	}
}

func TestBF16Special(t *testing.T) {
	if !math.IsInf(float64(RoundBF16(float32(math.Inf(1)))), 1) {
		t.Fatal("+inf not preserved")
	}
	if !math.IsInf(float64(RoundBF16(float32(math.Inf(-1)))), -1) {
		t.Fatal("-inf not preserved")
	}
	nan := RoundBF16(float32(math.NaN()))
	if nan == nan {
		t.Fatal("NaN not preserved")
	}
}

func TestQuickBF16RelativeError(t *testing.T) {
	// BF16 has a 7-bit mantissa: relative error ≤ 2^-8 for normal values.
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		if math.Abs(float64(v)) < 1e-30 { // skip subnormals
			return true
		}
		if math.Abs(float64(v)) > 3.38e38 { // near float32 max, BF16 overflows to inf
			return true
		}
		r := RoundBF16(v)
		rel := math.Abs(float64(r-v)) / math.Abs(float64(v))
		return rel <= 1.0/256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBF16Idempotent(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) {
			return true
		}
		r := RoundBF16(v)
		return RoundBF16(r) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewAndAccessors(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Size() != 24 || tt.Rank() != 3 || tt.Dim(1) != 3 {
		t.Fatalf("tensor meta wrong: %v %d", tt.Shape(), tt.Size())
	}
	tt.Set3(1, 2, 3, 7)
	if tt.At3(1, 2, 3) != 7 {
		t.Fatal("At3/Set3 mismatch")
	}
	m := New(2, 3)
	m.Set2(1, 2, 5)
	if m.At2(1, 2) != 5 {
		t.Fatal("At2/Set2 mismatch")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad shape accepted")
		}
	}()
	New(2, 0)
}

func TestFromSliceAndReshape(t *testing.T) {
	tt := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := tt.Reshape(3, 2)
	if r.At2(2, 1) != 6 {
		t.Fatalf("reshape view wrong: %v", r.Data())
	}
	r.Set2(0, 0, 9)
	if tt.At2(0, 0) != 9 {
		t.Fatal("reshape must share data")
	}
	c := tt.Clone()
	c.Set2(0, 0, 1)
	if tt.At2(0, 0) != 9 {
		t.Fatal("clone must not share data")
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data()[i] != v {
			t.Fatalf("matmul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched matmul accepted")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestSoftmax(t *testing.T) {
	s := Softmax(FromSlice([]float32{1, 2, 3}, 3))
	var sum float32
	for _, v := range s.Data() {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Fatalf("softmax sum = %v", sum)
	}
	if !(s.Data()[2] > s.Data()[1] && s.Data()[1] > s.Data()[0]) {
		t.Fatalf("softmax ordering wrong: %v", s.Data())
	}
	// Rank-2: each row sums to 1.
	m := Softmax(FromSlice([]float32{1, 2, 100, 101, -5, -6}, 3, 2))
	for r := 0; r < 3; r++ {
		rs := m.At2(r, 0) + m.At2(r, 1)
		if math.Abs(float64(rs-1)) > 1e-5 {
			t.Fatalf("row %d sum = %v", r, rs)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	s := Softmax(FromSlice([]float32{1000, 1000}, 2))
	if math.Abs(float64(s.Data()[0]-0.5)) > 1e-5 {
		t.Fatalf("large-input softmax = %v", s.Data())
	}
}

func TestArgmax(t *testing.T) {
	if Argmax(FromSlice([]float32{0.1, 0.7, 0.2}, 3)) != 1 {
		t.Fatal("argmax wrong")
	}
}

func TestFillRandnAndRoundBF16(t *testing.T) {
	tt := New(1000)
	tt.FillRandn(rand.New(rand.NewSource(1)), 0.1)
	var nonzero int
	for _, v := range tt.Data() {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 900 {
		t.Fatalf("FillRandn left %d zeros", 1000-nonzero)
	}
	tt.RoundBF16()
	for i, v := range tt.Data() {
		if RoundBF16(v) != v {
			t.Fatalf("element %d not BF16-exact after rounding", i)
		}
	}
}

func TestAddInPlace(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	AddInPlace(a, FromSlice([]float32{3, 4}, 2))
	if a.Data()[0] != 4 || a.Data()[1] != 6 {
		t.Fatalf("add = %v", a.Data())
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := New(64, 64)
	a.FillRandn(rng, 1)
	c := New(64, 64)
	c.FillRandn(rng, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, c)
	}
}

func BenchmarkRoundBF16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RoundBF16(float32(i) * 0.001)
	}
}
