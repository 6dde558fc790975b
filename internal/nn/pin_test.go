package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"lighttrader/internal/tensor"
)

// pinnedForward are golden FNV-1a hashes of each preset model's forward
// output on pinInput, captured before models.go was re-expressed over the
// zoo builders. The zoo refactor must keep every preset byte-identical:
// these hashes pin the weights (via Init order) and the layer math at once,
// which is what keeps BENCH_frontier.json and every pinned experiment valid.
var pinnedForward = map[string]uint64{
	"VanillaCNN": 0x900cad484bc3c886,
	"TransLOB":   0xe997c7059ce09eaf,
	"DeepLOB":    0xa361ac8927d55c71,
	"M1":         0x92462b067f57d441,
	"M2":         0xdf7d25bd965a4ad4,
	"M3":         0xe7fb19f7e25ec84b,
	"M4":         0x0ab3733d11d80cbe,
	"M5":         0x057e0c494995db90,
}

// pinInput is the deterministic probe tensor shared by all pin cases: a
// bounded, aperiodic fill that exercises every input element.
func pinInput() *tensor.Tensor {
	x := tensor.New(InputShape()...)
	d := x.Data()
	for i := range d {
		d[i] = float32(math.Sin(float64(i) * 0.137))
	}
	return x
}

// forwardHash hashes a model's forward output bit-exactly.
func forwardHash(t *testing.T, m *Model) uint64 {
	t.Helper()
	if _, err := m.Validate(); err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	out, err := m.Forward(pinInput())
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range out.Data() {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestPresetModelsPinned locks the three benchmark models and the M1…M5
// complexity ladder to their pre-zoo outputs.
func TestPresetModelsPinned(t *testing.T) {
	models := append(BenchmarkModels(), ComplexityLadder()...)
	for _, m := range models {
		got := forwardHash(t, m)
		want, ok := pinnedForward[m.Name()]
		if !ok {
			t.Errorf("%s: no pinned hash (got %#016x)", m.Name(), got)
			continue
		}
		if got != want {
			t.Errorf("%s: forward hash %#016x, want pinned %#016x", m.Name(), got, want)
		}
	}
}
