package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// panelKernel is one implementation of MulAddPanel's contract.
type panelKernel struct {
	name string
	fn   func(a, b []float32, ldb int, c []float32)
}

// panelKernels lists every implementation this host can run. The portable
// one is always there; panel_amd64_test.go adds the assembly when the CPU
// has AVX2, whatever start-up chose.
var panelKernels = []panelKernel{{"go", panelGo}}

// eachPanelKernel runs f once per kernel with MulAddPanel dispatching to it —
// so the portable kernel is covered on an AVX2 host too — and puts start-up's
// choice back.
func eachPanelKernel(f func(name string)) {
	chosen := panel
	defer func() { panel = chosen }()
	for _, k := range panelKernels {
		panel = k.fn
		f(k.name)
	}
}

// naivePanel is the contract written down: one chain per output, from c, in
// ascending p.
func naivePanel(a, b []float32, ldb int, c []float32) {
	for j := range c {
		s := c[j]
		for p, av := range a {
			s += av * b[p*ldb+j]
		}
		c[j] = s
	}
}

// salted fills s with N(0,1) values, a share `zeros` of them ±0 and a share
// `odd` of them denormal, infinite or NaN.
func salted(rng *rand.Rand, s []float32, zeros, odd float64) {
	denorm := math.Float32frombits(1 + uint32(rng.Intn(1<<20)))
	specials := []float32{denorm, -denorm, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for i := range s {
		switch u := rng.Float64(); {
		case u < zeros/2:
			s[i] = 0
		case u < zeros:
			s[i] = float32(math.Copysign(0, -1))
		case u < zeros+odd:
			s[i] = specials[rng.Intn(len(specials))]
		default:
			s[i] = float32(rng.NormFloat64())
		}
	}
}

// sameFloat is bit equality, except that any NaN matches any NaN: which
// operand's payload and sign a NaN-with-NaN operation returns depends on the
// operand order the compiler picked, and IEEE 754 leaves it open.
func sameFloat(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// TestPanelKernelsAgree: the assembly, the portable kernel and the naive
// loop produce the same bits for every output over the shapes around the
// kernel's strip widths (64, 32, 8 and the scalar tail) and the zoo's k,
// with rows of b further apart than they are long, all three operands at
// every float offset from a 32-byte boundary, and ±0, denormals, ±Inf and
// NaN in a, b and c. Floats outside c[:n] must not be written.
func TestPanelKernelsAgree(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	cases := 0
	const guard = 8
	for _, k := range []int{0, 1, 2, 127, 128, 129, 384} {
		for n := 1; n <= 130; n++ {
			for off := 0; off < 8; off++ {
				for _, pad := range []int{0, 1 + rng.Intn(9)} {
					ldb := n + pad
					a := make([]float32, 8+k)[off:][:k]
					b := make([]float32, 8+k*ldb)[(off+3)%8:][:k*ldb]
					c := make([]float32, 8+n+guard)[(off+5)%8:][:n+guard]
					salted(rng, a, 0.25, 0.002)
					salted(rng, b, 0.02, 0.003)
					salted(rng, c, 0.2, 0.02)
					want := append([]float32(nil), c...)
					naivePanel(a, b, ldb, want[:n])
					eachPanelKernel(func(name string) {
						got := make([]float32, 8+len(c))[(off+5)%8:][:len(c)] // offset like c
						copy(got, c)
						MulAddPanel(a, b, ldb, got[:n])
						for j := range got {
							if !sameFloat(got[j], want[j]) {
								t.Fatalf("seed %d, %s kernel, k=%d n=%d ldb=%d offset %d: c[%d] = %v (%#08x), the naive chain gives %v (%#08x)",
									seed, name, k, n, ldb, off, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
							}
						}
					})
					cases++
				}
			}
		}
	}
	if cases < 10000 {
		t.Fatalf("compared %d cases per kernel, want ≥ 10000", cases)
	}
}

// TestPanelFromZeroIsTheDotChain: from a zeroed c the kernel is the
// sequential dot product of a with each column — the chain Gemm's
// transposed-b path ran four columns at a time (dot4), which is why moving
// Dense and LSTM onto it moved no output bit.
func TestPanelFromZeroIsTheDotChain(t *testing.T) {
	eachPanelKernel(func(name string) {
		rng := rand.New(rand.NewSource(21))
		for it := 0; it < 200; it++ {
			k, n := 1+rng.Intn(200), 1+rng.Intn(100)
			a, w := make([]float32, k), make([]float32, n*k) // w is [n,k], one row per output
			salted(rng, a, 0.3, 0)
			salted(rng, w, 0.02, 0)
			wt := make([]float32, k*n)
			for j := 0; j < n; j++ {
				for p := 0; p < k; p++ {
					wt[p*n+j] = w[j*k+p]
				}
			}
			c := make([]float32, n)
			MulAddPanel(a, wt, n, c)
			for j := range c {
				var s float32
				for p, av := range a {
					s += av * w[j*k+p]
				}
				if math.Float32bits(c[j]) != math.Float32bits(s) {
					t.Fatalf("%s kernel, k=%d n=%d: c[%d] = %v, the dot chain gives %v", name, k, n, j, c[j], s)
				}
			}
		}
	})
}

func TestMulAddPanelRejectsShortPanel(t *testing.T) {
	MulAddPanel(nil, nil, 0, make([]float32, 3)) // k = 0: nothing to read
	MulAddPanel(make([]float32, 3), nil, 0, nil) // n = 0: nothing to write
	for name, f := range map[string]func(){
		"rows overlap": func() { MulAddPanel(make([]float32, 2), make([]float32, 16), 3, make([]float32, 4)) },
		"last row cut": func() { MulAddPanel(make([]float32, 3), make([]float32, 11), 4, make([]float32, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkMulAddPanel times the x·Wᵀ shapes behind BenchmarkDenseForward and
// BenchmarkLSTMStep in internal/nn — SizedCNN's dense(384→64), 256→64 and one
// DeepLOB LSTM step, [x,h](160)→4H(256) — on each kernel this host can run.
func BenchmarkMulAddPanel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range [][2]int{{384, 64}, {256, 64}, {160, 256}} {
		k, n := sh[0], sh[1]
		a, w, c := randTensor(rng, k).Data(), randTensor(rng, k, n).Data(), make([]float32, n)
		for _, kern := range panelKernels {
			b.Run(fmt.Sprintf("%d→%d/%s", k, n, kern.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(c)
					kern.fn(a, w, n, c)
				}
			})
		}
	}
}
