package cgra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lighttrader/internal/tensor"
)

// Golden-model kernels: bit-accurate software references for what the
// tensor engine computes at each precision, built on the same multiply
// kernel the host uses (internal/tensor). The compiler's cycle estimates
// describe *when* a hyperblock finishes; these functions describe *what*
// it produces.

// GoldenMatMul computes a×b ([m,k]×[k,n]) exactly as the tensor engine
// would at the given precision:
//
//   - PrecisionBF16: operands are rounded to BF16 storage, multiplied with
//     float32 accumulation (the MAC arrays accumulate in single precision),
//     and the result is rounded back to BF16 on writeback.
//   - PrecisionINT8: operands are symmetrically quantised per tensor to
//     int8, multiplied with exact int32 accumulation on the low-precision
//     lanes, and dequantised on writeback.
func GoldenMatMul(prec Precision, a, b *tensor.Tensor) *tensor.Tensor {
	switch prec {
	case PrecisionBF16:
		return matMul(a.Clone().RoundBF16(), b.Clone().RoundBF16()).RoundBF16()
	case PrecisionINT8:
		return int8MatMul(a, b)
	default:
		panic(fmt.Sprintf("cgra: golden matmul: unsupported precision %v", prec))
	}
}

// matMul is a×b on the host's multiply kernel, in a new tensor.
func matMul(a, b *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(a.Dim(0), b.Dim(1))
	tensor.MatMulInto(out, a, b)
	return out
}

// QuantizeINT8 symmetrically quantises t to int8 codes with a per-tensor
// scale such that x ≈ float32(code)·scale. A zero tensor gets scale 1.
func QuantizeINT8(t *tensor.Tensor) ([]int8, float32) {
	var maxAbs float32
	for _, v := range t.Data() {
		if a := float32(math.Abs(float64(v))); a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	codes := make([]int8, t.Size())
	for i, v := range t.Data() {
		q := math.RoundToEven(float64(v / scale))
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		codes[i] = int8(q)
	}
	return codes, scale
}

// int8MatMul is the INT8 tensor-engine reference: int32 accumulation over
// int8 codes, dequantised on writeback.
func int8MatMul(a, b *tensor.Tensor) *tensor.Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("cgra: golden matmul shape mismatch %v × %v", a.Shape(), b.Shape()))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	qa, sa := QuantizeINT8(a)
	qb, sb := QuantizeINT8(b)
	out := tensor.New(m, n)
	of := out.Data()
	rescale := sa * sb
	for i := 0; i < m; i++ {
		arow := qa[i*k : (i+1)*k]
		orow := of[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			var acc int32
			for p, av := range arow {
				acc += int32(av) * int32(qb[p*n+j])
			}
			orow[j] = float32(acc) * rescale
		}
	}
	return out
}

// naiveMatMul64 is an order-independent high-precision reference.
func naiveMatMul64(a, b *tensor.Tensor) []float64 {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := float64(a.Data()[i*k+p])
			for j := 0; j < n; j++ {
				out[i*n+j] += av * float64(b.Data()[p*n+j])
			}
		}
	}
	return out
}

func TestGoldenMatMulBF16(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 100; i++ {
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a, b := tensor.New(m, k), tensor.New(k, n)
		a.FillRandn(rng, 1)
		b.FillRandn(rng, 1)
		got := GoldenMatMul(PrecisionBF16, a, b)
		// The BF16 golden model must equal the host path run on the same
		// rounded operands: same GEMM backend, same writeback rounding.
		want := matMul(a.Clone().RoundBF16(), b.Clone().RoundBF16()).RoundBF16()
		for j, w := range want.Data() {
			if got.Data()[j] != w {
				t.Fatalf("case %d elem %d: %v != %v", i, j, got.Data()[j], w)
			}
		}
		// Inputs must be left untouched (golden model clones).
		if a.Data()[0] != a.Clone().Data()[0] {
			t.Fatal("golden matmul mutated its input")
		}
	}
}

func TestGoldenMatMulINT8(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		m, k, n := 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(16)
		a, b := tensor.New(m, k), tensor.New(k, n)
		a.FillRandn(rng, 1)
		b.FillRandn(rng, 1)
		got := GoldenMatMul(PrecisionINT8, a, b)
		// Recompute from the quantised codes in float64: int32 accumulation
		// is exact, so the results must match bit-for-bit after rescale.
		qa, sa := QuantizeINT8(a)
		qb, sb := QuantizeINT8(b)
		for ii := 0; ii < m; ii++ {
			for j := 0; j < n; j++ {
				var acc int64
				for p := 0; p < k; p++ {
					acc += int64(qa[ii*k+p]) * int64(qb[p*n+j])
				}
				want := float32(acc) * (sa * sb)
				if got.At2(ii, j) != want {
					t.Fatalf("case %d (%d,%d): %v != %v", i, ii, j, got.At2(ii, j), want)
				}
			}
		}
	}
}

// TestGoldenPrecisionError characterises the quantisation error of each
// precision against a float64 reference: BF16 stays within ~1%, INT8
// within the coarser bound its 8-bit codes admit. This is the documented
// accuracy ordering the paper's §III-C precision choice relies on.
func TestGoldenPrecisionError(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a, b := tensor.New(24, 32), tensor.New(32, 24)
	a.FillRandn(rng, 1)
	b.FillRandn(rng, 1)
	exact := naiveMatMul64(a, b)

	relErr := func(got *tensor.Tensor) float64 {
		var num, den float64
		for i, e := range exact {
			d := float64(got.Data()[i]) - e
			num += d * d
			den += e * e
		}
		return math.Sqrt(num / den)
	}
	bf16Err := relErr(GoldenMatMul(PrecisionBF16, a, b))
	int8Err := relErr(GoldenMatMul(PrecisionINT8, a, b))
	if bf16Err > 0.02 {
		t.Fatalf("bf16 relative error %v too large", bf16Err)
	}
	if int8Err > 0.2 {
		t.Fatalf("int8 relative error %v too large", int8Err)
	}
	if bf16Err >= int8Err {
		t.Fatalf("expected bf16 (%v) more accurate than int8 (%v)", bf16Err, int8Err)
	}
}

func TestQuantizeINT8Zero(t *testing.T) {
	z := tensor.New(3, 3)
	codes, scale := QuantizeINT8(z)
	if scale != 1 {
		t.Fatalf("zero tensor scale = %v", scale)
	}
	for _, c := range codes {
		if c != 0 {
			t.Fatal("zero tensor produced nonzero code")
		}
	}
}
