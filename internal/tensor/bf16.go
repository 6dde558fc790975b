// Package tensor provides the dense tensor type and Brain-floating-point
// (BF16) arithmetic used by the DNN pipeline. The paper's accelerator
// executes in BF16 as its main computational precision (§III-C); here BF16
// is emulated by rounding float32 values to the nearest BF16-representable
// value, which reproduces the numerics (8-bit exponent, 7-bit mantissa)
// without hardware support.
package tensor

import "math"

// BF16 is a Brain floating-point value: the upper 16 bits of an IEEE-754
// float32 (1 sign, 8 exponent, 7 mantissa bits).
type BF16 uint16

// ToBF16 converts a float32 to BF16 with round-to-nearest-even, the rounding
// mode used by the accelerator's execution units. NaNs are preserved
// (quieted); infinities round to themselves.
func ToBF16(f float32) BF16 {
	bits := math.Float32bits(f)
	if f != f { // NaN: keep the payload's top bits, force quiet bit
		return BF16(bits>>16 | 0x0040)
	}
	// Round to nearest even on the truncated 16 bits.
	rounded := bits + 0x7fff + (bits>>16)&1
	return BF16(rounded >> 16)
}

// Float32 expands a BF16 back to float32 exactly.
func (b BF16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}

// RoundBF16 rounds a float32 through BF16 precision and back — the value a
// BF16 execution unit would produce when storing f.
func RoundBF16(f float32) float32 {
	return ToBF16(f).Float32()
}

// RoundSliceBF16 rounds every element of s through BF16 precision in place.
func RoundSliceBF16(s []float32) {
	for i, v := range s {
		s[i] = RoundBF16(v)
	}
}
