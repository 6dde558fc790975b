package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lighttrader/internal/tensor"
)

// cloneConv returns a layer with c's geometry and weights that has seen no
// input: what the memoised layer must agree with, bit for bit, on every call.
func cloneConv(c *Conv2D) *Conv2D {
	f := NewConv2D(c.InC, c.OutC, c.KH, c.KW, c.SH, c.SW, c.PadH, c.PadW, c.Act)
	copy(f.w.Data(), c.w.Data())
	copy(f.b, c.b)
	return f
}

// memoCase draws the i-th model of the memo sweep — one convolution, or a
// chain of two — and an input shape it accepts. Three in four first layers
// are eligible (stride 1, no padding in H); H starts at KH, so inputs with no
// row to reuse occur; a third of the kernels span the input width (the
// in-place lowering), the rest are narrower, strided and padded in W.
func memoCase(rng *rand.Rand, i int) *Model {
	acts := []Activation{ActNone, ActReLU, ActLeakyReLU, ActTanh, ActSigmoid}
	for {
		inC, outC := []int{1, 3, 8}[rng.Intn(3)], 1+rng.Intn(8)
		kh := []int{1, 3, 4}[rng.Intn(3)]
		h, w := kh+rng.Intn(12), 1+rng.Intn(12)
		kw, sw, pw := w, 1+rng.Intn(3), 0
		if rng.Intn(3) > 0 {
			kw, pw = 1+rng.Intn(w), rng.Intn(3)
		}
		sh, ph := 1, 0
		if rng.Intn(4) == 0 {
			sh, ph = 1+rng.Intn(2), rng.Intn(2)
		}
		c := NewConv2D(inC, outC, kh, kw, sh, sw, ph, pw, acts[i%len(acts)])
		layers := []Layer{c}
		if out, err := c.OutShape([]int{inC, h, w}); err == nil && rng.Intn(3) == 0 {
			layers = append(layers, NewConv2D(outC, 1+rng.Intn(4), 1+rng.Intn(min(3, out[1])), 1+rng.Intn(out[2]), 1, 1, 0, 0, ActReLU))
		}
		m := &Model{ModelName: "memo-sweep", InputShape: []int{inC, h, w}, Layers: layers, BF16: i%2 == 1}
		if _, err := m.Validate(); err != nil {
			continue
		}
		for _, l := range layers {
			l.Init(rng)
			c := l.(*Conv2D)
			for j := range c.b {
				c.b[j] = float32(rng.NormFloat64())
			}
		}
		return m
	}
}

// eligible reports whether c can reuse anything of an h-row input.
func eligible(c *Conv2D, h int) bool { return c.SH == 1 && c.PadH == 0 && h > c.KH }

// freshRows overwrites rows [from,h) of every channel of the [c,h,w] input x:
// normal draws, one in ten of them +0.
func freshRows(rng *rand.Rand, x []float32, c, h, w, from int) {
	for ic := 0; ic < c; ic++ {
		for i := (ic*h + from) * w; i < (ic+1)*h*w; i++ {
			x[i] = tensor.RoundBF16(float32(rng.NormFloat64()))
			if rng.Intn(10) == 0 {
				x[i] = 0
			}
		}
	}
}

// shiftRows moves every channel of x up by k rows and draws the last k anew.
func shiftRows(rng *rand.Rand, x []float32, c, h, w, k int) {
	k = min(k, h)
	for ic := 0; ic < c; ic++ {
		copy(x[ic*h*w:], x[(ic*h+k)*w:(ic+1)*h*w])
	}
	freshRows(rng, x, c, h, w, h-k)
}

// TestConv2DMemoDifferential is the contract of the sliding-window memo: on
// any sequence of inputs a layer that has been remembering answers with the
// bits of a layer that has not. Each case drives one model through a random
// walk of the things a stream does — the next tick, a skipped tick, the same
// input again, an old element changed, a +0 turned −0, a NaN row, another
// shape — inside a Model (so BF16 cases round the returned tensor in place)
// and from two alternating caller-owned tensors (so a layer that kept the
// caller's tensor rather than a copy would compare it with itself). The hit
// counters hold the test to its subject: every next-tick input on an eligible
// layer must have been answered from the memo.
func TestConv2DMemoDifferential(t *testing.T) {
	const cases, callsPerCase = 360, 30
	var calls, hits, misses, chained uint64
	var p tensor.Pool
	for i := 0; i < cases; i++ {
		seed := int64(4300 + i)
		rng := rand.New(rand.NewSource(seed))
		m := memoCase(rng, i)
		convs := make([]*Conv2D, len(m.Layers))
		ref := &Model{ModelName: "fresh", BF16: m.BF16, Layers: make([]Layer, len(m.Layers))}
		for j, l := range m.Layers {
			convs[j] = l.(*Conv2D)
		}
		chained += uint64(len(convs) - 1)
		c, h, w := m.InputShape[0], m.InputShape[1], m.InputShape[2]
		cur := make([]float32, c*h*w)
		freshRows(rng, cur, c, h, w, 0)
		// nextTick[j] counts the calls layer j must have answered from its
		// memo; armed whether the first layer ever saw a row it could reuse.
		nextTick := make([]uint64, len(convs))
		armed := false
		var bufs [2][]float32
		for call := 0; call < callsPerCase; call++ {
			pure := false
			switch op := rng.Intn(12); {
			case call == 0:
			case op == 5: // a tick skipped
				shiftRows(rng, cur, c, h, w, 2)
			case op == 6: // the same input again
			case op == 7 && h > 1: // the next tick, one old element changed
				shiftRows(rng, cur, c, h, w, 1)
				at := rng.Intn(c)*h*w + rng.Intn((h-1)*w)
				cur[at] = math.Float32frombits(math.Float32bits(cur[at]) ^ 1)
			case op == 8 && h > 1: // the next tick, an old +0 now −0
				shiftRows(rng, cur, c, h, w, 1)
				pure = true // unless a +0 is found to flip
				for at := 0; at < (h-1)*w && pure; at++ {
					if math.Float32bits(cur[at]) == 0 {
						cur[at] = float32(math.Copysign(0, -1))
						pure = false
					}
				}
			case op == 9: // the next tick is a NaN row, then moves up like any other
				shiftRows(rng, cur, c, h, w, 1)
				for j := (h - 1) * w; j < h*w; j++ {
					cur[j] = float32(math.NaN())
				}
				pure = true
			case op == 10: // another shape
				for {
					h2, w2 := max(1, h-2+rng.Intn(5)), max(1, w-2+rng.Intn(5))
					m.InputShape = []int{c, h2, w2}
					if _, err := m.Validate(); err == nil && (h2 != h || w2 != w) {
						h, w = h2, w2
						break
					}
				}
				cur = make([]float32, c*h*w)
				freshRows(rng, cur, c, h, w, 0)
			default: // the next tick
				shiftRows(rng, cur, c, h, w, 1)
				pure = true
			}
			buf := append(bufs[call%2][:0], cur...)
			bufs[call%2] = buf
			x := tensor.FromSlice(buf, c, h, w)
			for j, cv := range convs {
				ref.Layers[j] = cloneConv(cv)
			}
			ref.InputShape = m.InputShape
			want, err := ref.Forward(x)
			if err != nil {
				t.Fatalf("seed %d call %d: fresh model: %v", seed, call, err)
			}
			got, err := m.Infer(&p, x)
			if err != nil {
				t.Fatalf("seed %d call %d: %v", seed, call, err)
			}
			wantSameBits(t, fmt.Sprintf("seed %d call %d (%s on %v) vs a fresh layer", seed, call, convs[0].Name(), m.InputShape), got, want)
			calls++
			armed = armed || eligible(convs[0], h)
			rows := h
			for j, cv := range convs {
				if pure && eligible(cv, rows) {
					nextTick[j]++
				}
				pure = pure && eligible(cv, rows) // a full pass of a strided or padded layer is no shift
				rows = outDim(rows, cv.KH, cv.SH, cv.PadH)
			}
		}
		for j, cv := range convs {
			if cv.SH != 1 || cv.PadH != 0 {
				if cv.memo != nil {
					t.Errorf("seed %d: %s strides or pads in H and has a memo", seed, cv.Name())
				}
				continue
			}
			if j == 0 && !armed && cv.memo.in != nil {
				t.Errorf("seed %d: %s never saw H > KH and kept an input", seed, cv.Name())
			}
			if cv.memo.hits < nextTick[j] {
				t.Errorf("seed %d: layer %d %s answered %d calls from its memo, %d were the last input moved up a row",
					seed, j, cv.Name(), cv.memo.hits, nextTick[j])
			}
			if got := cv.memo.hits + cv.memo.misses; got > callsPerCase {
				t.Errorf("seed %d: layer %d counted %d calls of %d", seed, j, got, callsPerCase)
			}
			hits += cv.memo.hits
			misses += cv.memo.misses
		}
	}
	t.Logf("%d calls, %d chained layers; memo hits %d, misses %d", calls, chained, hits, misses)
	if calls < 10000 || hits < calls/4 || misses < calls/8 || chained < cases/6 {
		t.Errorf("sweep too thin: %d calls, %d hits, %d misses, %d chained layers", calls, hits, misses, chained)
	}
}

// TestConv2DMemoDroppedWithWeights: the kept output is a function of the
// weights, so Init and an SGD step each force the next call — a plain next
// tick — through the full pass, and the call after that is a hit again.
func TestConv2DMemoDroppedWithWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rewrite := map[string]func(c *Conv2D, x *tensor.Tensor){
		"Init": func(c *Conv2D, _ *tensor.Tensor) { c.Init(rng) },
		"Backward+Update": func(c *Conv2D, x *tensor.Tensor) {
			out := c.Forward(x)
			grad := tensor.New(out.Shape()...)
			grad.FillRandn(rng, 1)
			c.Backward(x, out, grad)
			c.Update(0.1)
		},
	}
	for name, fn := range rewrite {
		c := NewConv2D(3, 4, 3, 5, 1, 1, 0, 0, ActTanh)
		c.Init(rng)
		xs := slidingInputs(rng, []int{3, 12, 5}, 4)
		c.Forward(xs[0])
		before := cloneConv(c)
		fn(c, xs[0])
		if sameBits(before.w.Data(), c.w.Data()) {
			t.Fatalf("%s left the weights alone", name)
		}
		hits, misses := c.memo.hits, c.memo.misses
		wantSameBits(t, name+"/next tick", c.Forward(xs[1]), cloneConv(c).Forward(xs[1]))
		if c.memo.hits != hits || c.memo.misses != misses+1 {
			t.Errorf("%s: the call after it was answered from the memo (hits %d→%d, misses %d→%d)",
				name, hits, c.memo.hits, misses, c.memo.misses)
		}
		wantSameBits(t, name+"/tick after", c.Forward(xs[2]), cloneConv(c).Forward(xs[2]))
		if c.memo.hits != hits+1 {
			t.Errorf("%s: the memo did not re-arm", name)
		}
	}
}

// TestSharedModelTwoStreams is what serve.New does with a tier ladder: one
// *Model answers two pipelines on two lanes. The layers' memos must neither
// mix the streams up nor make one lane wait for the other — under -race, nor
// be touched by both at once.
func TestSharedModelTwoStreams(t *testing.T) {
	const ticks = 96
	rng := rand.New(rand.NewSource(48))
	shared := NewSizedCNN("shared", 8, 0)
	type answer struct {
		dir  Direction
		conf float32
	}
	var streams [2][]*tensor.Tensor
	var want [2][]answer
	for s := range streams {
		streams[s] = slidingInputs(rng, shared.InputShape, ticks)
		alone := NewSizedCNN("shared", 8, 0) // same spec, so the same weights
		for _, x := range streams[s] {
			dir, conf, err := alone.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			want[s] = append(want[s], answer{dir, conf})
		}
	}
	var wg sync.WaitGroup
	for s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, x := range streams[s] {
					dir, conf, err := shared.Predict(x)
					if err != nil {
						t.Errorf("stream %d tick %d: %v", s, i, err)
						return
					}
					if w := want[s][i]; dir != w.dir || math.Float32bits(conf) != math.Float32bits(w.conf) {
						t.Errorf("stream %d tick %d: %v %v, the model on its own answers %v %v", s, i, dir, conf, w.dir, w.conf)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
