package nn

import (
	"math/rand"
	"testing"

	"lighttrader/internal/tensor"
)

// BenchmarkConv2DForward measures the im2col + MatMulInto convolution on a
// DeepLOB-sized layer ([16,100,20] input, 16→16 channels, 4×1 kernel).
func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(16, 16, 4, 1, 1, 1, 2, 0, ActLeakyReLU)
	c.Init(rng)
	x := tensor.New(16, 100, 20)
	x.FillRandn(rng, 1)
	var p tensor.Pool
	c.ForwardCtx(&p, x) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		c.ForwardCtx(&p, x)
	}
}

// slidingInputs returns n BF16-rounded inputs of shape [C,H,W], each the one
// before moved up a row with a new last row — the traffic a tick makes — and
// stamped so (tensor.SetStamp): input i is position i of a source of its own.
// The row stream has period n, so input 0 follows input n−1 the same way and
// a loop over them never breaks the stream, provided slide restamps them as
// it goes. With one channel the inputs are overlapping views of the stream,
// as cache-warm as the window the offload engine lends.
func slidingInputs(rng *rand.Rand, shape []int, n int) []*tensor.Tensor {
	c, h, w := shape[0], shape[1], shape[2]
	period := tensor.New(c, n, w)
	period.FillRandn(rng, 1)
	period.RoundBF16()
	stream := make([]float32, c*(n+h-1)*w)
	for ic := 0; ic < c; ic++ {
		for r := 0; r < n+h-1; r++ {
			copy(stream[(ic*(n+h-1)+r)*w:][:w], period.Data()[(ic*n+r%n)*w:][:w])
		}
	}
	ins := make([]*tensor.Tensor, n)
	src := tensor.NewStampSource()
	for i := range ins {
		if c == 1 {
			ins[i] = tensor.FromSlice(stream[i*w:(i+h)*w], 1, h, w)
		} else {
			ins[i] = tensor.New(c, h, w)
			for ic := 0; ic < c; ic++ {
				copy(ins[i].Data()[ic*h*w:(ic+1)*h*w], stream[(ic*(n+h-1)+i)*w:])
			}
		}
		ins[i].SetStamp(src, uint64(i))
	}
	return ins
}

// slide returns input i mod len(xs) of a slidingInputs stream stamped as
// position i, so a loop that wraps around xs keeps the stream unbroken.
func slide(xs []*tensor.Tensor, i int) *tensor.Tensor {
	x := xs[i%len(xs)]
	src, _ := x.Stamp()
	x.SetStamp(src, uint64(i))
	return x
}

// streamLen is how many sliding inputs the /stream benchmarks cycle through.
const streamLen = 128

// BenchmarkConv2DZoo times the convolution geometries the zoo models are
// built from: the full-width first layers, multiplied in place — every
// SizedCNN's (what wire-cnn spends its time in), VanillaCNN's and TransLOB's
// 1×40 embedding — the ladder's same-padded temporal conv and VanillaCNN's
// second stage (k×1 over a W = 1 activation: full width, but a patch too
// short for the in-place path, so im2col), and DeepLOB's level fold (in
// place, strided) and (price,qty) fold (im2col). Each case runs twice: on one
// unchanging, unstamped input, which no layer can reuse anything of (the full
// pass), and as <case>/stream on an input stamped as moving up one row per
// call, the traffic the live loop has.
func BenchmarkConv2DZoo(b *testing.B) {
	cases := []struct {
		name string
		conv *Conv2D
		in   []int
	}{
		{"full-4x40·1→8", NewConv2D(1, 8, 4, 40, 1, 1, 0, 0, ActReLU), []int{1, 100, 40}},
		{"full-4x40·1→64", NewConv2D(1, 64, 4, 40, 1, 1, 0, 0, ActReLU), []int{1, 100, 40}},
		{"embed-1x40·1→32", NewConv2D(1, 32, 1, 40, 1, 1, 0, 0, ActReLU), []int{1, 100, 40}},
		{"temporal-3x1-pad1·8→8@48", NewConv2D(8, 8, 3, 1, 1, 1, 1, 0, ActReLU), []int{8, 48, 1}},
		{"stage2-4x1·64→64@48", NewConv2D(64, 64, 4, 1, 1, 1, 0, 0, ActReLU), []int{64, 48, 1}},
		{"fold-1x10-s10·16→16", NewConv2D(16, 16, 1, 10, 1, 10, 0, 0, ActLeakyReLU), []int{16, 100, 10}},
		{"fold-1x2-s2·1→16", NewConv2D(1, 16, 1, 2, 1, 2, 0, 0, ActLeakyReLU), []int{1, 100, 40}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		tc.conv.Init(rng)
		x := tensor.New(tc.in...)
		x.FillRandn(rng, 1)
		b.Run(tc.name, func(b *testing.B) {
			var p tensor.Pool
			tc.conv.ForwardCtx(&p, x) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Reset()
				tc.conv.ForwardCtx(&p, x)
			}
		})
		xs := slidingInputs(rng, tc.in, streamLen)
		b.Run(tc.name+"/stream", func(b *testing.B) {
			var p tensor.Pool
			for i := 0; i < 2; i++ { // arm the memo, warm the arena on a hit
				p.Reset()
				tc.conv.ForwardCtx(&p, slide(xs, i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 2; i < b.N+2; i++ {
				p.Reset()
				tc.conv.ForwardCtx(&p, slide(xs, i))
			}
		})
	}
}

// BenchmarkMaxPool2DColumn times the pool behind a full-width convolution:
// SizedCNN(8,0)'s [8,97,1] → [8,48,1], a single column per channel — on one
// unchanging, unstamped input (every output window scanned), and as /stream
// on one stamped as moving up a row per call (one new window per channel).
func BenchmarkMaxPool2DColumn(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := []int{8, 97, 1}
	x := tensor.New(in...)
	x.FillRandn(rng, 1)
	b.Run("same", func(b *testing.B) {
		mp := NewMaxPool2D(2, 1, 0, 0)
		var p tensor.Pool
		mp.ForwardCtx(&p, x)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Reset()
			mp.ForwardCtx(&p, x)
		}
	})
	xs := slidingInputs(rng, in, streamLen)
	b.Run("stream", func(b *testing.B) {
		mp := NewMaxPool2D(2, 1, 0, 0)
		var p tensor.Pool
		for i := 0; i < 2; i++ { // arm the memo, warm the arena on a hit
			p.Reset()
			mp.ForwardCtx(&p, slide(xs, i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 2; i < b.N+2; i++ {
			p.Reset()
			mp.ForwardCtx(&p, slide(xs, i))
		}
	})
}

// BenchmarkLSTMStep measures one LSTM time step (T=1) at DeepLOB size.
func BenchmarkLSTMStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(96, 64, true)
	l.Init(rng)
	x := tensor.New(1, 96)
	x.FillRandn(rng, 1)
	var p tensor.Pool
	l.ForwardCtx(&p, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		l.ForwardCtx(&p, x)
	}
}

// BenchmarkLSTMSequence measures a full T=100 sequence forward.
func BenchmarkLSTMSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(96, 64, true)
	l.Init(rng)
	x := tensor.New(100, 96)
	x.FillRandn(rng, 1)
	var p tensor.Pool
	l.ForwardCtx(&p, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		l.ForwardCtx(&p, x)
	}
}

// BenchmarkModelInfer measures a full zero-alloc inference (warmed pool)
// for each paper model.
func BenchmarkModelInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range BenchmarkModels() {
		m.Init(7)
		x := tensor.New(m.InputShape...)
		x.FillRandn(rng, 1)
		b.Run(m.Name(), func(b *testing.B) {
			var p tensor.Pool
			if _, err := m.Infer(&p, x); err != nil { // warm the arena
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Infer(&p, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelPredict measures the end-to-end Predict path (pooled
// scratch via sync.Pool), the call the trading pipeline makes per tick, for
// the paper models and for SizedCNN(8,0), the model perf's wire-cnn
// workload runs: on one unchanging input, and as <model>/stream on the
// feature map of one instrument, which moves up one row per tick; and as
// <model>/cycle on the same windows unstamped, so that no memo hits — the
// control that /stream's gain is read against.
func BenchmarkModelPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range append(BenchmarkModels(), NewSizedCNN("SizedCNN-8-0", 8, 0)) {
		m.Init(7)
		x := tensor.New(m.InputShape...)
		x.FillRandn(rng, 1)
		b.Run(m.Name(), func(b *testing.B) {
			if _, _, err := m.Predict(x); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.Predict(x); err != nil {
					b.Fatal(err)
				}
			}
		})
		xs := slidingInputs(rng, m.InputShape, streamLen)
		b.Run(m.Name()+"/stream", func(b *testing.B) {
			for i := 0; i < 2; i++ { // arm the memos, warm the arena on a hit
				if _, _, err := m.Predict(slide(xs, i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 2; i < b.N+2; i++ {
				if _, _, err := m.Predict(slide(xs, i)); err != nil {
					b.Fatal(err)
				}
			}
		})
		cycle := make([]*tensor.Tensor, len(xs))
		for i, x := range xs {
			cycle[i] = tensor.FromSlice(x.Data(), x.Shape()...) // the same memory, no stamp
		}
		b.Run(m.Name()+"/cycle", func(b *testing.B) {
			if _, _, err := m.Predict(cycle[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.Predict(cycle[i%len(cycle)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
