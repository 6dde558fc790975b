package nn

import (
	"fmt"
	"hash/fnv"
)

// Parameterised model zoo (inference-compute frontier). Instead of three
// fixed benchmark architectures, a ZooSpec generates a whole family of
// CNN/LSTM/transformer variants over width, depth and lookback axes on the
// same tensor kernels — the accuracy-vs-compute frontier the scheduler's
// degrade ladder walks. The three paper models and the M1…M5
// ladder are presets of this one construction path (see models.go), pinned
// byte-identical by pin_test.go.

// ZooArch selects the architecture family of a zoo variant.
type ZooArch uint8

const (
	// ZooCNN is the convolutional family: ConvPoolStages feature stages,
	// Depth extra same-padded temporal convolutions, a dense head. The
	// vanilla CNN and the M1…M5 ladder live here.
	ZooCNN ZooArch = iota
	// ZooLSTM is the DeepLOB family: the three LOB-folding conv blocks,
	// Depth extra conv pairs, an inception module and an LSTM head.
	ZooLSTM
	// ZooTransformer is the TransLOB family: a conv embedding, positional
	// encoding and Depth transformer encoder blocks.
	ZooTransformer
)

// String implements fmt.Stringer.
func (a ZooArch) String() string {
	switch a {
	case ZooCNN:
		return "cnn"
	case ZooLSTM:
		return "lstm"
	case ZooTransformer:
		return "transformer"
	default:
		return fmt.Sprintf("ZooArch(%d)", uint8(a))
	}
}

// ZooSpec parameterises one model variant. The zero value of every knob
// selects the family default, so partial specs stay valid.
type ZooSpec struct {
	// Name identifies the variant; it becomes Model.ModelName.
	Name string
	// Arch selects the architecture family.
	Arch ZooArch
	// Width is the base channel count (CNN: conv channels; LSTM: DeepLOB
	// block channels, inception branches use 2×, the LSTM hidden 4×;
	// transformer: embedding dim, must divide by the 4 attention heads).
	// 0 selects the family default (32 / 16 / 32).
	Width int
	// Depth adds temporal stages beyond the family skeleton: extra
	// same-padded convolutions (CNN), extra conv pairs per the DeepLOB
	// block shape (LSTM), or encoder blocks (transformer, 0 → 2).
	Depth int
	// ConvPoolStages (CNN only) is the number of conv+pool feature stages
	// before the temporal convolutions; 0 → 1.
	ConvPoolStages int
	// Hidden (CNN only) is the dense hidden width; 0 → 64.
	Hidden int
	// Lookback crops the input to its most recent rows before the stack
	// runs, scaling compute with history length; 0 or Window keeps the
	// full window. The model input shape is unchanged.
	Lookback int
	// Seed initialises the weights; 0 derives a deterministic seed from
	// Name.
	Seed int64
}

// lookback resolves the effective history length.
func (s ZooSpec) lookback() int {
	if s.Lookback == 0 {
		return Window
	}
	return s.Lookback
}

// seed resolves the weight seed, hashing Name when unset.
func (s ZooSpec) seed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	return int64(h.Sum64()&0x7fffffffffffffff) + 1
}

// crop returns the lookback crop prefix (empty for the full window).
func (s ZooSpec) crop() []Layer {
	if lb := s.lookback(); lb != Window {
		return []Layer{WindowCrop{Rows: lb}}
	}
	return nil
}

// MustBuildZoo builds a variant, panicking on an invalid spec. The presets
// in models.go use it; their specs are valid by construction.
func MustBuildZoo(s ZooSpec) *Model {
	m, err := BuildZoo(s)
	if err != nil {
		panic(err)
	}
	return m
}

// BuildZoo builds one zoo variant. The returned model consumes the standard
// [1,Window,Features] offload feature map and is initialised from the
// spec's seed, so equal specs produce byte-identical models.
func BuildZoo(s ZooSpec) (*Model, error) {
	if s.lookback() < 8 || s.lookback() > Window {
		return nil, fmt.Errorf("nn: zoo %q: lookback %d outside [8,%d]", s.Name, s.lookback(), Window)
	}
	var layers []Layer
	var err error
	switch s.Arch {
	case ZooCNN:
		layers, err = s.buildCNN()
	case ZooLSTM:
		layers, err = s.buildLSTM()
	case ZooTransformer:
		layers, err = s.buildTransformer()
	default:
		err = fmt.Errorf("nn: zoo %q: unknown arch %v", s.Name, s.Arch)
	}
	if err != nil {
		return nil, err
	}
	m := &Model{ModelName: s.Name, InputShape: InputShape(), Layers: layers}
	if _, err := m.Validate(); err != nil {
		return nil, err
	}
	m.Init(s.seed())
	return m, nil
}

// shapeAfter composes OutShape through layers, from the standard input.
func shapeAfter(layers []Layer) ([]int, error) {
	shape := InputShape()
	for _, l := range layers {
		next, err := l.OutShape(shape)
		if err != nil {
			return nil, err
		}
		shape = next
	}
	return shape, nil
}

// buildCNN assembles the convolutional family: ConvPoolStages stages of
// (kh=4 feature conv, 2×1 max pool), Depth same-padded temporal convs, then
// flatten and a two-layer dense head.
func (s ZooSpec) buildCNN() ([]Layer, error) {
	w := s.Width
	if w == 0 {
		w = 32
	}
	if w < 1 {
		return nil, fmt.Errorf("nn: zoo %q: cnn width %d", s.Name, w)
	}
	stages := s.ConvPoolStages
	if stages == 0 {
		stages = 1
	}
	hidden := s.Hidden
	if hidden == 0 {
		hidden = 64
	}
	layers := s.crop()
	in, kw := 1, Features
	for st := 0; st < stages; st++ {
		layers = append(layers,
			NewConv2D(in, w, 4, kw, 1, 1, 0, 0, ActReLU),
			NewMaxPool2D(2, 1, 0, 0),
		)
		in, kw = w, 1
	}
	for i := 0; i < s.Depth; i++ {
		layers = append(layers, NewConv2D(w, w, 3, 1, 1, 1, 1, 0, ActReLU))
	}
	shape, err := shapeAfter(layers)
	if err != nil {
		return nil, fmt.Errorf("nn: zoo %q: %w", s.Name, err)
	}
	return append(layers,
		Flatten{},
		NewDense(prod(shape), hidden, ActReLU),
		NewDense(hidden, NumClasses, ActNone),
		SoftmaxLayer{},
	), nil
}

// buildLSTM assembles the DeepLOB family at base width B: three conv blocks
// folding (price,qty) pairs, sides and levels, Depth extra same-padded conv
// pairs, a three-branch inception module at 2B channels, and an LSTM(6B,4B)
// head over the CHW→sequence handoff.
func (s ZooSpec) buildLSTM() ([]Layer, error) {
	b := s.Width
	if b == 0 {
		b = 16
	}
	if b < 1 {
		return nil, fmt.Errorf("nn: zoo %q: lstm width %d", s.Name, b)
	}
	inception := &Inception{Branches: [][]Layer{
		{
			NewConv2D(b, 2*b, 1, 1, 1, 1, 0, 0, ActLeakyReLU),
			NewConv2D(2*b, 2*b, 3, 1, 1, 1, 1, 0, ActLeakyReLU),
		},
		{
			NewConv2D(b, 2*b, 1, 1, 1, 1, 0, 0, ActLeakyReLU),
			NewConv2D(2*b, 2*b, 5, 1, 1, 1, 2, 0, ActLeakyReLU),
		},
		{
			NewMaxPool2D(3, 1, 1, 1), // stride 1 keeps H with pad below
			NewConv2D(b, 2*b, 1, 1, 1, 1, 1, 0, ActLeakyReLU),
		},
	}}
	layers := s.crop()
	layers = append(layers,
		// Block 1: fold (price,qty) pairs. [1,H,40] → [B,H,20]
		NewConv2D(1, b, 1, 2, 1, 2, 0, 0, ActLeakyReLU),
		NewConv2D(b, b, 4, 1, 1, 1, 2, 0, ActLeakyReLU),
		NewConv2D(b, b, 4, 1, 1, 1, 1, 0, ActLeakyReLU),
		// Block 2: fold sides. → [B,H,10]
		NewConv2D(b, b, 1, 2, 1, 2, 0, 0, ActLeakyReLU),
		NewConv2D(b, b, 4, 1, 1, 1, 2, 0, ActLeakyReLU),
		NewConv2D(b, b, 4, 1, 1, 1, 1, 0, ActLeakyReLU),
		// Block 3: fold levels. → [B,H,1]
		NewConv2D(b, b, 1, 10, 1, 10, 0, 0, ActLeakyReLU),
		NewConv2D(b, b, 4, 1, 1, 1, 2, 0, ActLeakyReLU),
		NewConv2D(b, b, 4, 1, 1, 1, 1, 0, ActLeakyReLU),
	)
	// Depth: extra pad-2/pad-1 conv pairs in the block shape (H-preserving).
	for i := 0; i < s.Depth; i++ {
		layers = append(layers,
			NewConv2D(b, b, 4, 1, 1, 1, 2, 0, ActLeakyReLU),
			NewConv2D(b, b, 4, 1, 1, 1, 1, 0, ActLeakyReLU),
		)
	}
	return append(layers,
		inception, // → [6B,H,1]
		SeqFromCHW{},
		NewLSTM(6*b, 4*b, true),
		NewDense(4*b, NumClasses, ActNone),
		SoftmaxLayer{},
	), nil
}

// buildTransformer assembles the TransLOB family at embedding width E: a
// conv feature embedding, four same-padded temporal convs, positional
// encoding, Depth encoder blocks (4 heads, 4E feed-forward) and a dense
// head over the flattened sequence.
func (s ZooSpec) buildTransformer() ([]Layer, error) {
	e := s.Width
	if e == 0 {
		e = 32
	}
	const attnHeads = 4
	if e < attnHeads || e%attnHeads != 0 {
		return nil, fmt.Errorf("nn: zoo %q: transformer width %d not divisible by %d heads", s.Name, e, attnHeads)
	}
	blocks := s.Depth
	if blocks == 0 {
		blocks = 2
	}
	layers := s.crop()
	layers = append(layers,
		// Feature embedding across the LOB dimension. → [E,H,1]
		NewConv2D(1, e, 1, Features, 1, 1, 0, 0, ActReLU),
		// Dilated-causal-style temporal stack (same-padded).
		NewConv2D(e, e, 3, 1, 1, 1, 1, 0, ActReLU),
		NewConv2D(e, e, 3, 1, 1, 1, 1, 0, ActReLU),
		NewConv2D(e, e, 3, 1, 1, 1, 1, 0, ActReLU),
		NewConv2D(e, e, 3, 1, 1, 1, 1, 0, ActReLU),
		SeqFromCHW{}, // [H,E]
		PositionalEncoding{},
	)
	for i := 0; i < blocks; i++ {
		layers = append(layers, NewTransformerBlock(e, attnHeads, 4*e))
	}
	return append(layers,
		Flatten{},
		NewDense(s.lookback()*e, NumClasses, ActNone),
		SoftmaxLayer{},
	), nil
}

// VanillaCNNSpec is the zoo spec behind NewVanillaCNN.
func VanillaCNNSpec() ZooSpec {
	return ZooSpec{Name: "VanillaCNN", Arch: ZooCNN, Width: 64, ConvPoolStages: 2, Hidden: 128, Seed: 1}
}

// DeepLOBSpec is the zoo spec behind NewDeepLOB.
func DeepLOBSpec() ZooSpec {
	return ZooSpec{Name: "DeepLOB", Arch: ZooLSTM, Width: 16, Seed: 2}
}

// TransLOBSpec is the zoo spec behind NewTransLOB.
func TransLOBSpec() ZooSpec {
	return ZooSpec{Name: "TransLOB", Arch: ZooTransformer, Width: 32, Depth: 2, Seed: 3}
}

// SizedCNNSpec is the zoo spec behind NewSizedCNN (the M1…M5 ladder shape).
func SizedCNNSpec(name string, channels, extraConvs int) ZooSpec {
	return ZooSpec{
		Name: name, Arch: ZooCNN, Width: channels, Depth: extraConvs,
		ConvPoolStages: 1, Hidden: 64,
		Seed: int64(channels)*31 + int64(extraConvs),
	}
}
