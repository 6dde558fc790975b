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
	f.repack()
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
		m := &Model{ModelName: "memo-sweep", InputShape: []int{inC, h, w}, Layers: layers}
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

// walkStep is what a stream does to a model's input between two calls.
type walkStep int

const (
	stepNext      walkStep = iota // the next tick: up a row, stamped one position on
	stepSkipped                   // a tick skipped: up two rows, two positions on
	stepRepeat                    // the same input under the same stamp
	stepSource                    // the next tick's rows under another source's stamp
	stepUnstamped                 // an unrelated input with no stamp; the stream resumes after it
	stepShape                     // another shape: a new stream
)

// memoEnters reports whether layer l runs a stamped input of the given shape
// under its memo, and whether it then stamps its output.
func memoEnters(l Layer, shape []int) (enters, stampsOut bool) {
	switch l := l.(type) {
	case *Conv2D:
		return l.memo != nil && shape[1] > l.KH, true
	case *MaxPool2D:
		return l.memo != nil && shape[2] == 1 && shape[1] > l.KH, l.SH == 1
	}
	return false, false
}

// stampedWalk drives m through calls steps of a random stamped walk — the
// first a new source, then stepNext half the time and each other step a
// tenth — drawing rows with draw and shapes with reshape, from two
// alternating caller-owned tensors (so a layer that kept the caller's tensor
// rather than a copy would be caught when it is overwritten). Every answer
// must equal, bit for bit, that of fresh layers (freshLayer) that have seen
// nothing. Every memo layer's tally (MemoTally) must show a hit exactly where its
// input was stamped one position on from the last stamped input it ran under
// its memo — for the first layer, a stepNext; behind a memo layer, a call
// that layer answered from its memo and stamped — and a miss at every other
// stamped input it could run under its memo. It returns the hits and misses.
func stampedWalk(t *testing.T, seed int64, rng *rand.Rand, m *Model, calls int,
	draw func(x []float32, c, h, w, from int), reshape func() []int) (hits, misses uint64) {
	t.Helper()
	c, h, w := m.InputShape[0], m.InputShape[1], m.InputShape[2]
	cur := make([]float32, c*h*w)
	draw(cur, c, h, w, 0)
	shift := func(k int) {
		k = min(k, h)
		for ic := 0; ic < c; ic++ {
			copy(cur[ic*h*w:], cur[(ic*h+k)*w:(ic+1)*h*w])
		}
		draw(cur, c, h, w, h-k)
	}
	src, pos := tensor.NewStampSource(), uint64(0)
	wantHits := make([]uint64, len(m.Layers))
	wantMisses := make([]uint64, len(m.Layers))
	tally := NewMemoTally(m.Layers...)
	ref := &Model{ModelName: "fresh", Layers: make([]Layer, len(m.Layers))}
	var bufs [2][]float32
	var p tensor.Pool
	for call := 0; call < calls; call++ {
		step := stepSource // the first call starts a stream
		if r := rng.Intn(10); call > 0 && r < 5 {
			step = stepNext
		} else if call > 0 {
			step = walkStep(r - 4)
		}
		in := cur
		switch step {
		case stepNext:
			shift(1)
			if rng.Intn(8) == 0 { // a NaN row, moving up like any other
				for j := (h - 1) * w; j < h*w; j++ {
					cur[j] = float32(math.NaN())
				}
			}
			pos++
		case stepSkipped:
			shift(2)
			pos += 2
		case stepSource:
			shift(1)
			src, pos = tensor.NewStampSource(), 0
		case stepUnstamped:
			in = make([]float32, c*h*w)
			draw(in, c, h, w, 0)
		case stepShape:
			m.InputShape = reshape()
			c, h, w = m.InputShape[0], m.InputShape[1], m.InputShape[2]
			cur = make([]float32, c*h*w)
			draw(cur, c, h, w, 0)
			in, src, pos = cur, tensor.NewStampSource(), 0
		}
		buf := append(bufs[call%2][:0], in...)
		bufs[call%2] = buf
		x := tensor.FromSlice(buf, c, h, w)
		if step != stepUnstamped {
			x.SetStamp(src, pos)
		}
		for j, l := range m.Layers {
			ref.Layers[j] = freshLayer(l)
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
		tally.Observe()
		wantSameBits(t, fmt.Sprintf("seed %d call %d (step %d, %s on %v) vs fresh layers", seed, call, step, m.Layers[len(m.Layers)-1].Name(), m.InputShape), got, want)
		stamped, next := step != stepUnstamped, step == stepNext
		shape := m.InputShape
		for j, l := range m.Layers {
			enters, stampsOut := memoEnters(l, shape)
			if stamped && enters {
				if next {
					wantHits[j]++
				} else {
					wantMisses[j]++
				}
			}
			stamped, next = stamped && enters && stampsOut, next && enters && stampsOut
			shape, _ = l.OutShape(shape)
		}
	}
	if tally.Odd != 0 {
		t.Errorf("seed %d: %d calls moved a memo's answer position by more than two", seed, tally.Odd)
	}
	for j, l := range m.Layers {
		_, ok := MemoPos(l)
		lh, lm := tally.Hits[j], tally.Misses[j]
		if lh != wantHits[j] || lm != wantMisses[j] {
			t.Errorf("seed %d: layer %d %s (memo %v) counted %d hits and %d misses; the stamps call for %d and %d",
				seed, j, l.Name(), ok, lh, lm, wantHits[j], wantMisses[j])
		}
		hits += lh
		misses += lm
	}
	return hits, misses
}

// TestConv2DMemoDifferential is the contract of the convolution's
// sliding-window memo: on any stamped walk (stampedWalk) a layer that has
// been remembering answers with the bits of a layer that has not, and its
// memo answers exactly the calls whose stamp says the input moved up one row.
// The models are single convolutions and chains of two (memoCase).
func TestConv2DMemoDifferential(t *testing.T) {
	const cases, callsPerCase = 360, 30
	var calls, hits, misses, chained uint64
	for i := 0; i < cases; i++ {
		seed := int64(4300 + i)
		rng := rand.New(rand.NewSource(seed))
		m := memoCase(rng, i)
		for _, l := range m.Layers {
			if c := l.(*Conv2D); (c.SH != 1 || c.PadH != 0) != (c.memo == nil) {
				t.Errorf("seed %d: %s has memo %v", seed, c.Name(), c.memo != nil)
			}
		}
		chained += uint64(len(m.Layers) - 1)
		reshape := func() []int {
			c, h, w := m.InputShape[0], m.InputShape[1], m.InputShape[2]
			for {
				h2, w2 := max(1, h-2+rng.Intn(5)), max(1, w-2+rng.Intn(5))
				shape := []int{c, h2, w2}
				if _, err := (&Model{Layers: m.Layers, InputShape: shape}).Validate(); err == nil && (h2 != h || w2 != w) {
					return shape
				}
			}
		}
		draw := func(x []float32, c, h, w, from int) { freshRows(rng, x, c, h, w, from) }
		lh, lm := stampedWalk(t, seed, rng, m, callsPerCase, draw, reshape)
		calls += callsPerCase
		hits += lh
		misses += lm
	}
	t.Logf("%d calls, %d chained layers; memo hits %d, misses %d", calls, chained, hits, misses)
	if calls < 10000 || hits < calls/4 || misses < calls/8 || chained < cases/6 {
		t.Errorf("sweep too thin: %d calls, %d hits, %d misses, %d chained layers", calls, hits, misses, chained)
	}
}

// poolCase draws the i-th model of the pool memo sweep: a single-column max
// pool (KH and SH in {1,2,3}), alone, behind a full-width convolution (whose
// output it then pools, as in SizedCNN), or in front of a second pool; and an
// input shape it accepts, H from KH up so that inputs with no row to reuse
// occur.
func poolCase(rng *rand.Rand, i int) *Model {
	for {
		pool := func() *MaxPool2D { return NewMaxPool2D(1+rng.Intn(3), 1, 1+rng.Intn(3), 1) }
		c, w := 1+rng.Intn(8), 1
		var layers []Layer
		switch i % 4 {
		case 1:
			w = 1 + rng.Intn(12)
			cv := NewConv2D(c, 1+rng.Intn(8), 1+rng.Intn(3), w, 1, 1, 0, 0, ActLeakyReLU)
			cv.Init(rng)
			for j := range cv.b {
				cv.b[j] = float32(rng.NormFloat64())
			}
			cv.repack()
			layers = []Layer{cv, pool()}
		case 2:
			layers = []Layer{pool(), pool()}
		default:
			layers = []Layer{pool()}
		}
		h := 1 + rng.Intn(14)
		m := &Model{ModelName: "pool-sweep", InputShape: []int{c, h, w}, Layers: layers}
		if _, err := m.Validate(); err == nil {
			return m
		}
	}
}

// freshLayer returns a layer with l's geometry and weights that has seen no
// input.
func freshLayer(l Layer) Layer {
	if c, ok := l.(*Conv2D); ok {
		return cloneConv(c)
	}
	p := l.(*MaxPool2D)
	return NewMaxPool2D(p.KH, p.KW, p.SH, p.SW)
}

// poolRows overwrites rows [from,h) of every channel of the [c,h,w] input x
// from a small alphabet, so that windows hold ties — ±0 among them — and NaNs,
// the cases where the order of the comparisons decides the bits.
func poolRows(rng *rand.Rand, x []float32, c, h, w, from int) {
	alphabet := []float32{-1, 0, float32(math.Copysign(0, -1)), 0.5, 1, float32(math.NaN())}
	for ic := 0; ic < c; ic++ {
		for i := (ic*h + from) * w; i < (ic+1)*h*w; i++ {
			if rng.Intn(2) == 0 {
				x[i] = alphabet[rng.Intn(len(alphabet))]
			} else {
				x[i] = tensor.RoundBF16(float32(rng.NormFloat64()))
			}
		}
	}
}

// TestMaxPool2DMemoDifferential is TestConv2DMemoDifferential for the pool's
// memo, on pools alone, behind a full-width convolution (conv → pool, as in
// SizedCNN) and in front of a second pool (poolCase), with rows drawn to hold
// ties, ±0 and NaNs (poolRows). The walk's new shapes change channels and
// height, and now and then give a pool alone a second column, which the memo
// does not follow.
func TestMaxPool2DMemoDifferential(t *testing.T) {
	const cases, callsPerCase = 300, 30
	var calls, hits, misses uint64
	for i := 0; i < cases; i++ {
		seed := int64(5300 + i)
		rng := rand.New(rand.NewSource(seed))
		m := poolCase(rng, i)
		_, convFirst := m.Layers[0].(*Conv2D)
		reshape := func() []int {
			c, h, w := m.InputShape[0], m.InputShape[1], m.InputShape[2]
			for {
				c2, h2, w2 := c, max(1, h-3+rng.Intn(7)), w
				if !convFirst {
					c2 = max(1, c-1+rng.Intn(3))
					if w2 = 1; rng.Intn(4) == 0 {
						w2 = 2
					}
				}
				shape := []int{c2, h2, w2}
				if _, err := (&Model{Layers: m.Layers, InputShape: shape}).Validate(); err == nil && (c2 != c || h2 != h || w2 != w) {
					return shape
				}
			}
		}
		draw := func(x []float32, c, h, w, from int) { poolRows(rng, x, c, h, w, from) }
		lh, lm := stampedWalk(t, seed, rng, m, callsPerCase, draw, reshape)
		calls += callsPerCase
		hits += lh
		misses += lm
	}
	t.Logf("%d calls; memo hits %d, misses %d", calls, hits, misses)
	if calls < 9000 || hits < calls/4 || misses < calls/8 {
		t.Errorf("sweep too thin: %d calls, %d hits, %d misses", calls, hits, misses)
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
			out := c.ForwardCtx(nil, x)
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
		c.ForwardCtx(nil, xs[0])
		before := cloneConv(c)
		fn(c, xs[0])
		if sameBits(before.w.Data(), c.w.Data()) {
			t.Fatalf("%s left the weights alone", name)
		}
		tally := NewMemoTally(c)
		wantSameBits(t, name+"/next tick", c.ForwardCtx(nil, xs[1]), cloneConv(c).ForwardCtx(nil, xs[1]))
		if tally.Observe(); tally.Hits[0] != 0 || tally.Misses[0] != 1 {
			t.Errorf("%s: the call after it was answered from the memo (%d hits, %d misses)",
				name, tally.Hits[0], tally.Misses[0])
		}
		wantSameBits(t, name+"/tick after", c.ForwardCtx(nil, xs[2]), cloneConv(c).ForwardCtx(nil, xs[2]))
		if tally.Observe(); tally.Hits[0] != 1 {
			t.Errorf("%s: the memo did not re-arm", name)
		}
	}
}

// TestSharedModelTwoStreams is what serve.New does with a tier ladder: one
// *Model answers two pipelines on two lanes, each lending windows stamped by
// a source of its own. The layers' memos — the first convolution's and the
// max-pool's — must neither mix the streams up nor make one lane wait for the
// other — under -race, nor be touched by both at once. A model on its own
// stream answers all but its first call from both memos.
func TestSharedModelTwoStreams(t *testing.T) {
	const ticks, rounds = 96, 3
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
		tally := NewMemoTally(alone.Layers[:2]...)
		for i := 0; i < rounds*ticks; i++ {
			dir, conf, err := alone.Predict(slide(streams[s], i))
			if err != nil {
				t.Fatal(err)
			}
			tally.Observe()
			want[s] = append(want[s], answer{dir, conf})
		}
		for j, l := range alone.Layers[:2] {
			if hits, misses := tally.Hits[j], tally.Misses[j]; hits != rounds*ticks-1 || misses != 1 || tally.Odd != 0 {
				t.Fatalf("%s on its own stream: %d hits, %d misses (%d odd calls); want %d and 1", l.Name(), hits, misses, tally.Odd, rounds*ticks-1)
			}
		}
	}
	var wg sync.WaitGroup
	for s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*ticks; i++ {
				dir, conf, err := shared.Predict(slide(streams[s], i))
				if err != nil {
					t.Errorf("stream %d tick %d: %v", s, i, err)
					return
				}
				if w := want[s][i]; dir != w.dir || math.Float32bits(conf) != math.Float32bits(w.conf) {
					t.Errorf("stream %d tick %d: %v %v, the model on its own answers %v %v", s, i, dir, conf, w.dir, w.conf)
					return
				}
			}
		}()
	}
	wg.Wait()
	// The calls interleave, so they are not tallied one by one: the memos
	// answered some of them, each moving the position by one or two.
	for _, l := range shared.Layers[:2] {
		if pos, ok := MemoPos(l); !ok || pos == 0 || pos > 2*2*rounds*ticks {
			t.Errorf("%s: answer position %d (memo %v) after %d calls", l.Name(), pos, ok, 2*rounds*ticks)
		}
	}
}

// TestLayersLeaveInputAlone holds every layer to the precondition the stream
// stamps rest on: no layer writes its input. The offload engine lends the
// model its own window, and a memo trusts that the window stamped n+1 is the
// one stamped n moved up a row — true only if nothing downstream wrote it.
// For every paper preset, every ladder rung and SizedCNN(8,0), on a stamped
// stream (so the memos' hit paths run) and then on an unstamped input,
// Predict leaves its input's bits as they were, and so does every layer of
// Infer's chain — each Inception branch's layers included — to its own input.
func TestLayersLeaveInputAlone(t *testing.T) {
	models := func() []*Model {
		return append(append(BenchmarkModels(), ComplexityLadder()...), NewSizedCNN("SizedCNN-8-0", 8, 0))
	}
	rng := rand.New(rand.NewSource(33))
	var p tensor.Pool
	for i, walked := range models() {
		predicted := models()[i]
		xs := slidingInputs(rng, walked.InputShape, 3)
		for j, x := range append(xs, xs[2].Clone()) {
			tag := fmt.Sprintf("%s input %d", walked.Name(), j)
			before := x.Clone()
			if _, _, err := predicted.Predict(x); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if !sameBits(before.Data(), x.Data()) {
				t.Fatalf("%s: Predict wrote its input", tag)
			}
			p.Reset()
			leavesInput(t, tag, &p, walked.Layers, x)
		}
	}
}

// leavesInput runs layers as Infer does, failing if one writes its input.
func leavesInput(t *testing.T, tag string, p *tensor.Pool, layers []Layer, x *tensor.Tensor) {
	t.Helper()
	for i, l := range layers {
		if in, ok := l.(*Inception); ok {
			for b, branch := range in.Branches {
				leavesInput(t, fmt.Sprintf("%s layer %d branch %d", tag, i, b), p, branch, x)
			}
		}
		before := x.Clone()
		out := l.ForwardCtx(p, x)
		if !sameBits(before.Data(), x.Data()) {
			t.Fatalf("%s: layer %d %s wrote its input", tag, i, l.Name())
		}
		x = out
	}
}
