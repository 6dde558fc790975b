package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lighttrader/internal/tensor"
)

// dot4Ref and gemmNTRef are the lowering Dense and LSTM ran before they kept
// packed weights — tensor.Gemm's transposed-b branch at m = 1, alpha = 1,
// kept as the reference: c[j] += a·w[j,:], four rows of the [n,k] matrix w
// at a time sharing the loads of a, the last n%4 through the four-chain Dot.
func dot4Ref(x, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float32) {
	for i, v := range x {
		s0 += v * r0[i]
		s1 += v * r1[i]
		s2 += v * r2[i]
		s3 += v * r3[i]
	}
	return
}

func gemmNTRef(a, w []float32, c []float32) {
	k, n := len(a), len(c)
	j := 0
	for ; j+4 <= n; j += 4 {
		s0, s1, s2, s3 := dot4Ref(a, w[j*k:], w[(j+1)*k:], w[(j+2)*k:], w[(j+3)*k:])
		c[j] += s0
		c[j+1] += s1
		c[j+2] += s2
		c[j+3] += s3
	}
	for ; j < n; j++ {
		c[j] += tensor.Dot(a, w[j*k:(j+1)*k])
	}
}

// denseViaGemmNT is Dense.ForwardCtx as it was: x·wᵀ into a zeroed output,
// then bias, then activation.
func denseViaGemmNT(d *Dense, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(d.Out)
	gemmNTRef(x.Data(), d.w.Data(), out.Data())
	tensor.AddBias(out, d.b)
	applyAct(d.Act, out.Data())
	return out
}

// lstmViaGemmNT is LSTM.ForwardCtx as it was: wx and wh packed side by side
// as [4H, D+H] on every call, the gates seeded with the bias and the step's
// [x_t,h]·wcombᵀ added to them.
func lstmViaGemmNT(l *LSTM, x *tensor.Tensor) *tensor.Tensor {
	T, D, H := x.Dim(0), l.In, l.Hidden
	wcomb := make([]float32, 4*H*(D+H))
	for g := 0; g < 4*H; g++ {
		row := wcomb[g*(D+H) : (g+1)*(D+H)]
		copy(row[:D], l.wx.Data()[g*D:(g+1)*D])
		copy(row[D:], l.wh.Data()[g*H:(g+1)*H])
	}
	xh, c, gates := make([]float32, D+H), make([]float32, H), make([]float32, 4*H)
	h := xh[D:]
	seq := tensor.New(T, H)
	for t := 0; t < T; t++ {
		copy(xh[:D], x.Data()[t*D:(t+1)*D])
		copy(gates, l.b)
		gemmNTRef(xh, wcomb, gates)
		for j := 0; j < H; j++ {
			i, f := sigmoid32(gates[j]), sigmoid32(gates[H+j])
			g, o := tanh32(gates[2*H+j]), sigmoid32(gates[3*H+j])
			c[j] = f*c[j] + i*g
			h[j] = o * tanh32(c[j])
		}
		copy(seq.Data()[t*H:(t+1)*H], h)
	}
	if l.ReturnLast {
		return tensor.FromSlice(append([]float32(nil), h...), H)
	}
	return seq
}

// sparseInput draws an input with the zeros of both signs a ReLU or a
// leaky ReLU times zero leaves behind.
func sparseInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillRandn(rng, 1)
	for i, v := range x.Data() {
		if v < -0.3 {
			x.Data()[i] = float32(math.Copysign(0, float64(rng.Intn(2))-0.5))
		}
	}
	return x
}

// TestPackedForwardMatchesGemmNT: on the zoo's shapes — and on output counts
// that leave every remainder mod 4 and mod 8 — Dense and LSTM on packed
// weights give, bit for bit, what they gave through Gemm's transposed-b
// branch, on the heap and from a pool.
func TestPackedForwardMatchesGemmNT(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	acts := []Activation{ActNone, ActReLU, ActLeakyReLU, ActTanh, ActSigmoid}
	dense := [][2]int{
		{384, 64}, {64, 3}, {64, 6}, {1408, 128}, {128, 3}, {256, 64}, // SizedCNN, two heads, VanillaCNN
		{32, 32}, {32, 128}, {128, 32}, {3200, 3}, // TransLOB
		{9, 1}, {17, 5}, {50, 7}, {33, 66}, {40, 75}, {12, 130},
	}
	for i := 0; i < 40; i++ {
		dense = append(dense, [2]int{1 + rng.Intn(200), 1 + rng.Intn(140)})
	}
	var p tensor.Pool
	for i, sh := range dense {
		d := NewDense(sh[0], sh[1], acts[i%len(acts)])
		d.Init(rng)
		for j := range d.b {
			d.b[j] = float32(rng.NormFloat64())
		}
		x := sparseInput(rng, d.In)
		want := denseViaGemmNT(d, x)
		wantSameBits(t, d.Name()+"/heap", d.Forward(x), want)
		p.Reset()
		wantSameBits(t, d.Name()+"/pool", d.ForwardCtx(&p, x), want)
	}
	lstm := [][3]int{{96, 64, 100}, {48, 32, 12}, {6, 4, 3}, {5, 3, 7}, {1, 1, 1}, {40, 18, 9}, {7, 33, 5}}
	for i, sh := range lstm {
		l := NewLSTM(sh[0], sh[1], i%2 == 0)
		l.Init(rng)
		x := sparseInput(rng, sh[2], l.In)
		want := lstmViaGemmNT(l, x)
		wantSameBits(t, l.Name()+"/heap", l.Forward(x), want)
		p.Reset()
		wantSameBits(t, l.Name()+"/pool", l.ForwardCtx(&p, x), want)
	}
}

// freshDense and freshLSTM build a new layer holding l's weights: what a
// layer must agree with however its weights got there.
func freshDense(d *Dense) *Dense {
	f := NewDense(d.In, d.Out, d.Act)
	copy(f.w.Data(), d.w.Data())
	copy(f.b, d.b)
	f.repack()
	return f
}

func freshLSTM(l *LSTM) *LSTM {
	f := NewLSTM(l.In, l.Hidden, l.ReturnLast)
	copy(f.wx.Data(), l.wx.Data())
	copy(f.wh.Data(), l.wh.Data())
	copy(f.b, l.b)
	f.repack()
	return f
}

// TestPackedWeightsFollowEveryWriter: the packed copy is rebuilt by whatever
// writes the weights. Init, and Backward + Update, between two forward
// passes must leave the layer answering like a fresh one with its weights; a
// writer that forgets repack() answers from the weights it had before. The
// convolution is full-width, so its forward multiplies against wt.
func TestPackedWeightsFollowEveryWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	d := NewDense(24, 16, ActTanh)
	l := NewLSTM(10, 8, false)
	c := NewConv2D(2, 5, 3, 6, 1, 1, 0, 0, ActTanh)
	dx, lx, cx := sparseInput(rng, d.In), sparseInput(rng, 6, l.In), sparseInput(rng, c.InC, 9, c.KW)
	if !c.inPlace(c.KW) {
		t.Fatalf("%s does not take the in-place lowering", c.Name())
	}
	train := func(layer Layer, x *tensor.Tensor) {
		out := layer.Forward(x)
		grad := out.Clone()
		grad.FillRandn(rng, 1)
		layer.(Backprop).Backward(x, out, grad)
		layer.(Backprop).Update(0.1)
	}
	for _, step := range []struct {
		name  string
		write func()
	}{
		{"Init", func() { d.Init(rng); l.Init(rng); c.Init(rng) }},
		{"Update", func() { train(d, dx); train(l, lx); train(c, cx) }},
		{"Init again", func() { d.Init(rng); l.Init(rng); c.Init(rng) }},
	} {
		dBefore, lBefore, cBefore := d.Forward(dx), l.Forward(lx), c.Forward(cx)
		step.write()
		dNow, lNow, cNow := d.Forward(dx), l.Forward(lx), c.Forward(cx)
		wantSameBits(t, step.name+"/dense", dNow, freshDense(d).Forward(dx))
		wantSameBits(t, step.name+"/lstm", lNow, freshLSTM(l).Forward(lx))
		wantSameBits(t, step.name+"/conv", cNow, cloneConv(c).Forward(cx))
		if sameBits(dBefore.Data(), dNow.Data()) || sameBits(lBefore.Data(), lNow.Data()) || sameBits(cBefore.Data(), cNow.Data()) {
			t.Fatalf("%s left an output where it was: the step wrote no weight", step.name)
		}
	}
}

// TestPredictConcurrentShared is serve.New's arrangement for every kind of
// model in the zoo: one *Model, every lane calling Predict on it. The
// answers must be the ones a single goroutine gets, and — under -race — the
// forward pass must write nothing the lanes share. (The LSTM used to repack
// its gate weights into a shared buffer on every forward.)
func TestPredictConcurrentShared(t *testing.T) {
	const lanes, calls = 4, 3
	rng := rand.New(rand.NewSource(63))
	for _, m := range append(BenchmarkModels(), NewSizedCNN("SizedCNN-8-0", 8, 0)) {
		type answer struct {
			dir  Direction
			conf float32
		}
		xs := make([]*tensor.Tensor, calls)
		want := make([]answer, calls)
		for i := range xs {
			xs[i] = tensor.New(m.InputShape...)
			xs[i].FillRandn(rng, 1)
			dir, conf, err := m.Predict(xs[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = answer{dir, conf}
		}
		var wg sync.WaitGroup
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range xs {
					i := (n + lane) % calls // lanes are on different inputs at any moment
					dir, conf, err := m.Predict(xs[i])
					if err != nil {
						t.Errorf("%s lane %d: %v", m.Name(), lane, err)
						return
					}
					if w := want[i]; dir != w.dir || math.Float32bits(conf) != math.Float32bits(w.conf) {
						t.Errorf("%s lane %d input %d: %v %v, one goroutine answers %v %v", m.Name(), lane, i, dir, conf, w.dir, w.conf)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkDenseForward times the dense heads the zoo runs per tick:
// SizedCNN's 384→64 (what wire-cnn's forward pass spent most of its time
// in), its 64→3 logits (Out < 4: all tensor.Dot, no panel) and 256→64.
func BenchmarkDenseForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range [][2]int{{384, 64}, {64, 3}, {256, 64}} {
		d := NewDense(sh[0], sh[1], ActReLU)
		d.Init(rng)
		x := tensor.New(d.In)
		x.FillRandn(rng, 1)
		b.Run(fmt.Sprintf("%d→%d", d.In, d.Out), func(b *testing.B) {
			var p tensor.Pool
			d.ForwardCtx(&p, x) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Reset()
				d.ForwardCtx(&p, x)
			}
		})
	}
}
