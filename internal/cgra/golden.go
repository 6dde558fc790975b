package cgra

import (
	"fmt"
	"math"

	"lighttrader/internal/tensor"
)

// Golden-model kernels: bit-accurate software references for what the
// tensor engine computes at each precision, built on the same blocked GEMM
// backend the host uses (internal/tensor). The compiler's cycle estimates
// describe *when* a hyperblock finishes; these functions describe *what*
// it produces, so accelerator-path results can be validated end to end
// against host inference.

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
		ar := a.Clone().RoundBF16()
		br := b.Clone().RoundBF16()
		return tensor.MatMul(ar, br).RoundBF16()
	case PrecisionINT8:
		return int8MatMul(a, b)
	default:
		panic(fmt.Sprintf("cgra: golden matmul: unsupported precision %v", prec))
	}
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
