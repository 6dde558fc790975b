package nn_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/scenario"
	"lighttrader/internal/tensor"
	"lighttrader/internal/trading"
)

// streamTicks is one instrument's scenario stream, a recovery snapshot at
// every scenario-second.
func streamTicks(t *testing.T, seed int64) []feed.Tick {
	t.Helper()
	phases := make([]scenario.Phase, 3)
	for i := range phases {
		phases[i] = scenario.Phase{
			Name: fmt.Sprintf("steady-%d", i), DurationSecs: 1, SnapshotOnEnter: true,
			Arrivals: scenario.ArrivalSpec{RateHz: 170},
		}
	}
	src, err := scenario.New("memo-stream", scenario.Script{
		Instruments: []scenario.Instrument{{SecurityID: 1, Symbol: "ESU6", MidPrice: 450000, DepthPerLevel: 50}},
		Phases:      phases,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return src.Ticks()
}

// TestStreamedModelMatchesFreshModel: on the feature maps the offload engine
// makes of a live stream — each the last moved up a row — a model that
// follows the stream answers, tick for tick and bit for bit, what a model
// built for that one tick answers, straight off the engine and through
// core.Pipeline (decision log and orders); and its first convolution
// answered all but the first of them from its memo.
func TestStreamedModelMatchesFreshModel(t *testing.T) {
	ticks := streamTicks(t, 61)
	snaps := make([]lob.Snapshot, len(ticks))
	for i := range ticks {
		snaps[i] = ticks[i].Snapshot
	}
	norm := offload.Calibrate(snaps)
	// VanillaCNN costs twenty SizedCNN(8,0)s a tick and is built anew for
	// every one: it gets the stream up to just past the second snapshot.
	for _, tc := range []struct {
		build func() *nn.Model
		ticks int
	}{
		{func() *nn.Model { return nn.NewSizedCNN("SizedCNN-8-0", 8, 0) }, len(ticks)},
		{nn.NewVanillaCNN, 240},
	} {
		build, ticks, snaps := tc.build, ticks[:tc.ticks], snaps[:tc.ticks]
		streamed := build()
		eng := offload.NewEngine(norm, 4)
		inferences := 0
		for i := range snaps {
			eng.Push(snaps[i])
			for in, ok := eng.Pop(); ok; in, ok = eng.Pop() {
				dir, conf, err := streamed.Predict(in.Tensor)
				if err != nil {
					t.Fatal(err)
				}
				wdir, wconf, err := build().Predict(in.Tensor)
				if err != nil {
					t.Fatal(err)
				}
				if dir != wdir || math.Float32bits(conf) != math.Float32bits(wconf) {
					t.Fatalf("%s tick %d: %v %v, a fresh model answers %v %v", streamed.Name(), i, dir, conf, wdir, wconf)
				}
				eng.Recycle(in.Tensor)
				inferences++
			}
		}
		checkHitShare(t, streamed, inferences)

		tcfg := trading.DefaultConfig(1)
		tcfg.MinConfidence = 0
		streamed = build()
		var pipes [2]*core.Pipeline
		for i := range pipes {
			p, err := core.NewPipeline("ESU6", 1, streamed, norm, tcfg)
			if err != nil {
				t.Fatal(err)
			}
			pipes[i] = p
		}
		pipes[1].SetPredictor(func(x *tensor.Tensor) (nn.Direction, float32, error) { return build().Predict(x) })
		var orders [2][]exchange.Request
		for _, tk := range ticks {
			for i, p := range pipes {
				reqs, err := p.OnPacket(tk.Packet)
				if err != nil {
					t.Fatal(err)
				}
				orders[i] = append(orders[i], reqs...)
			}
		}
		if pipes[0].Inferences() == 0 || len(orders[0]) == 0 {
			t.Fatalf("%s: %d inferences, %d orders", streamed.Name(), pipes[0].Inferences(), len(orders[0]))
		}
		if !reflect.DeepEqual(pipes[0].Trader().Decisions(), pipes[1].Trader().Decisions()) {
			t.Errorf("%s: decision logs differ", streamed.Name())
		}
		if !reflect.DeepEqual(orders[0], orders[1]) {
			t.Errorf("%s: order streams differ", streamed.Name())
		}
		checkHitShare(t, streamed, pipes[0].Inferences())
	}
}

// checkHitShare holds m's first layer — the convolution the feature map goes
// into — to having answered at least 99 % of the calls from its memo.
func checkHitShare(t *testing.T, m *nn.Model, calls int) {
	t.Helper()
	hits, misses, ok := nn.MemoCounts(m.Layers[0])
	if !ok || hits+misses != uint64(calls) {
		t.Fatalf("%s: first layer %s counted %d+%d calls (memo %v), the stream made %d",
			m.Name(), m.Layers[0].Name(), hits, misses, ok, calls)
	}
	if float64(hits) < 0.99*float64(calls) {
		t.Errorf("%s: %d of %d calls answered from the memo, want ≥ 99 %%", m.Name(), hits, calls)
	}
}
