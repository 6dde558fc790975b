package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/scenario"
	"lighttrader/internal/tensor"
	"lighttrader/internal/trading"
)

// answer is one inference result as the signal hook sees it, the confidence
// as bits.
type answer struct {
	dir  nn.Direction
	conf uint32
}

// streamRun is one pipeline over a stretch of a scenario, recording what it
// answered and ordered.
type streamRun struct {
	p       *core.Pipeline
	answers []answer
	orders  []exchange.Request
	tally   *nn.MemoTally // observed after every inference, when set
}

// newStreamRun builds a pipeline for the scenarios' standard instrument
// around model; predict, when set, replaces the model's forward pass.
func newStreamRun(t *testing.T, model *nn.Model, norm offload.Normalizer, predict func(*tensor.Tensor) (nn.Direction, float32, error)) *streamRun {
	t.Helper()
	tcfg := trading.DefaultConfig(1)
	tcfg.MinConfidence = 0
	p, err := core.NewPipeline("ESU6", 1, model, norm, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &streamRun{p: p}
	if predict != nil {
		p.SetPredictor(predict)
	}
	p.SetSignalHook(func(ev core.SignalEvent) {
		r.answers = append(r.answers, answer{ev.Action, math.Float32bits(ev.Confidence)})
		if r.tally != nil {
			r.tally.Observe()
		}
	})
	return r
}

// feed runs one packet through the pipeline.
func (r *streamRun) feed(t *testing.T, pkt []byte) {
	t.Helper()
	reqs, err := r.p.OnPacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	r.orders = append(r.orders, reqs...)
}

// matches fails unless r answered and ordered exactly what ref did, and
// made at least min inferences.
func (r *streamRun) matches(t *testing.T, tag string, ref *streamRun, min int) {
	t.Helper()
	if len(r.answers) < min || len(r.answers) != len(ref.answers) {
		t.Fatalf("%s: %d answers, a model that remembers nothing gave %d (want ≥ %d)", tag, len(r.answers), len(ref.answers), min)
	}
	for i, a := range r.answers {
		if a != ref.answers[i] {
			t.Fatalf("%s: inference %d answered %v %#08x, a model that remembers nothing %v %#08x",
				tag, i, a.dir, a.conf, ref.answers[i].dir, ref.answers[i].conf)
		}
	}
	if !reflect.DeepEqual(r.orders, ref.orders) || !reflect.DeepEqual(r.p.Trader().Decisions(), ref.p.Trader().Decisions()) {
		t.Fatalf("%s: orders or decision logs differ from the reference's", tag)
	}
}

// forgetful answers as a model that remembers nothing: it hands m unstamped
// copies of the window, which every memo runs beside (tensor.SetStamp), so
// each answer is the full pass a freshly built m would make.
func forgetful(m *nn.Model) func(*tensor.Tensor) (nn.Direction, float32, error) {
	return func(x *tensor.Tensor) (nn.Direction, float32, error) { return m.Predict(x.Clone()) }
}

// watchMemos tallies, inference by inference, the memos of layers [0,2) of
// r's model — the convolution the feature map goes into and the pool behind
// it.
func (r *streamRun) watchMemos() { r.tally = nn.NewMemoTally(r.p.Model().Layers[:2]...) }

// checkHitShare holds the layers r watches (watchMemos) to having run every
// one of calls under their memos and answered at least 99 % of them from it.
func checkHitShare(t *testing.T, tag string, r *streamRun, calls int) {
	t.Helper()
	c := r.tally
	if c.Odd != 0 {
		t.Fatalf("%s: %d inferences moved a memo's answer position by more than two", tag, c.Odd)
	}
	for j, l := range r.p.Model().Layers[:2] {
		hits, misses := c.Hits[j], c.Misses[j]
		if hits+misses != uint64(calls) {
			t.Fatalf("%s: %s counted %d+%d calls, the stream made %d", tag, l.Name(), hits, misses, calls)
		}
		if float64(hits) < 0.99*float64(calls) {
			t.Errorf("%s: %s answered %d of %d calls from its memo, want ≥ 99 %%", tag, l.Name(), hits, calls)
		}
	}
}

// streamStretch returns up to n packets of the named registry scenario at
// seed, from an offset the seed draws, and a normaliser calibrated on the
// scenario's books.
func streamStretch(t *testing.T, name string, seed int64, n int) ([][]byte, offload.Normalizer) {
	t.Helper()
	src, err := scenario.ByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	ticks := src.Ticks()
	snaps := make([]lob.Snapshot, len(ticks))
	pkts := make([][]byte, len(ticks))
	for i := range ticks {
		snaps[i], pkts[i] = ticks[i].Snapshot, ticks[i].Packet
	}
	if len(pkts) > n {
		at := rand.New(rand.NewSource(seed)).Intn(len(pkts) - n)
		pkts = pkts[at : at+n]
	}
	return pkts, offload.Calibrate(snaps)
}

// TestStreamedModelMatchesFreshModel: on every registry scenario at two
// seeds, through core.Pipeline — the offload engine lending each window
// stamped as the last moved up a row — a model that follows the stream
// answers, inference for inference and bit for bit, what a model that
// remembers nothing answers (forgetful), and orders the same. Three
// arrangements run on each stretch:
//   - own: one model per pipeline; its convolution and pool answer ≥ 99 % of
//     the calls from their memos;
//   - shared: one model behind two pipelines fed the same packets, whose
//     windows' stamps therefore alternate between two sources and always
//     miss;
//   - ladder: a primary model and a cheap rung that crops the window
//     (nn.WindowCrop), switched every k inferences; the crop passes the
//     stamp on, so the cheap rung's memos hit within its stretches too.
//
// Each stretch is a subtest named by scenario and seed, so a failure replays
// with go test -run 'TestStreamedModelMatchesFreshModel/<scenario>/seed=<n>'.
// VanillaCNN, twenty SizedCNN(8,0)s a tick, runs the own arrangement on one
// shorter stretch.
func TestStreamedModelMatchesFreshModel(t *testing.T) {
	sized := func() *nn.Model { return nn.NewSizedCNN("SizedCNN-8-0", 8, 0) }
	cheap := func() *nn.Model {
		s := nn.SizedCNNSpec("SizedCNN-8-0-lb40", 8, 0)
		s.Lookback = 40
		return nn.MustBuildZoo(s)
	}
	for i, name := range scenario.Names() {
		for _, seed := range []int64{int64(61 + 2*i), int64(1061 + 2*i)} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Logf("scenario %s, seed %d", name, seed)
				pkts, norm := streamStretch(t, name, seed, 700)
				ref := newStreamRun(t, nil, norm, forgetful(sized()))

				own := newStreamRun(t, sized(), norm, nil)
				own.watchMemos()
				sharedModel := sized()
				shared := [2]*streamRun{newStreamRun(t, sharedModel, norm, nil), newStreamRun(t, sharedModel, norm, nil)}
				shared[0].watchMemos()
				shared[1].tally = shared[0].tally

				k := 3 + rand.New(rand.NewSource(seed)).Intn(14)
				rungs := [2]*nn.Model{sized(), cheap()}
				ladder := newStreamRun(t, rungs[0], norm, nil)
				ladder.p.SetModelLadder(rungs[1:])
				// The memo layers: the primary's first two, the cheap rung's two behind its crop.
				ladderMemos := []nn.Layer{rungs[0].Layers[0], rungs[0].Layers[1], rungs[1].Layers[1], rungs[1].Layers[2]}
				ladder.tally = nn.NewMemoTally(ladderMemos...)
				refRungs := [2]*nn.Model{sized(), cheap()}
				tier, lastTier := 0, -1
				ladderRef := newStreamRun(t, nil, norm, func(x *tensor.Tensor) (nn.Direction, float32, error) {
					return forgetful(refRungs[tier])(x)
				})
				var calls, stretches [2]uint64 // per rung: inferences, and runs of them unbroken by the other rung
				for _, pkt := range pkts {
					tier = ladder.p.Inferences() / k % 2
					ladder.p.SetActiveTier(tier)
					before := ladder.p.Inferences()
					for _, r := range []*streamRun{ref, own, shared[0], shared[1], ladder, ladderRef} {
						r.feed(t, pkt)
					}
					if n := ladder.p.Inferences() - before; n > 0 {
						calls[tier] += uint64(n)
						if tier != lastTier {
							stretches[tier]++
						}
						lastTier = tier
					}
				}
				own.matches(t, "own", ref, 100)
				checkHitShare(t, "own", own, own.p.Inferences())
				for s, r := range shared {
					r.matches(t, fmt.Sprintf("shared/%d", s), ref, 100)
				}
				for j, l := range sharedModel.Layers[:2] {
					c := shared[0].tally
					if hits, misses := c.Hits[j], c.Misses[j]; hits != 0 || misses != uint64(2*ref.p.Inferences()) || c.Odd != 0 {
						t.Errorf("shared: %s counted %d hits and %d misses (%d odd) over two alternating streams of %d",
							l.Name(), hits, misses, c.Odd, ref.p.Inferences())
					}
				}
				ladder.matches(t, fmt.Sprintf("ladder/k=%d", k), ladderRef, 100)
				if c := ladder.tally; c.Odd != 0 {
					t.Errorf("ladder/k=%d: %d inferences moved a memo's answer position by more than two", k, c.Odd)
				}
				for j, l := range ladderMemos {
					r := j / 2
					hits, misses := ladder.tally.Hits[j], ladder.tally.Misses[j]
					if hits != calls[r]-stretches[r] || misses != stretches[r] {
						t.Errorf("ladder/k=%d: rung %d's %s counted %d hits and %d misses; it ran %d times in %d stretches",
							k, r, l.Name(), hits, misses, calls[r], stretches[r])
					}
				}
			})
		}
	}
	t.Run("VanillaCNN", func(t *testing.T) {
		pkts, norm := streamStretch(t, "trading-day", 61, 340)
		ref := newStreamRun(t, nil, norm, forgetful(nn.NewVanillaCNN()))
		own := newStreamRun(t, nn.NewVanillaCNN(), norm, nil)
		own.watchMemos()
		for _, pkt := range pkts {
			ref.feed(t, pkt)
			own.feed(t, pkt)
		}
		own.matches(t, "own", ref, 200)
		checkHitShare(t, "own", own, own.p.Inferences())
	})
}
