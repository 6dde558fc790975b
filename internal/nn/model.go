package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"lighttrader/internal/tensor"
)

// Direction is the predicted price movement class (paper Fig. 3): the
// direction of the mid price at the prediction horizon relative to now.
type Direction uint8

const (
	// Down predicts the mid price will fall.
	Down Direction = iota
	// Stationary predicts no significant move.
	Stationary
	// Up predicts the mid price will rise.
	Up
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Down:
		return "down"
	case Stationary:
		return "stationary"
	case Up:
		return "up"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// NumClasses is the size of the model output distribution.
const NumClasses = 3

// Model is a feed-forward network with a fixed input shape.
type Model struct {
	// ModelName identifies the architecture ("DeepLOB", …).
	ModelName string
	// InputShape is the expected input, [C,H,W] = [1, window, features].
	InputShape []int
	// Layers are applied in order.
	Layers []Layer
}

// Name returns the architecture name.
func (m *Model) Name() string { return m.ModelName }

// Validate checks that layer shapes compose, returning the output shape.
func (m *Model) Validate() ([]int, error) {
	shape := m.InputShape
	for i, l := range m.Layers {
		next, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("nn: %s layer %d (%s): %w", m.ModelName, i, l.Name(), err)
		}
		shape = next
	}
	return shape, nil
}

// Init deterministically initialises all weights from seed.
func (m *Model) Init(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, l := range m.Layers {
		l.Init(rng)
	}
}

// Forward runs one inference. The input shape must equal InputShape.
func (m *Model) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if !shapeEq(x.Shape(), m.InputShape) {
		return nil, fmt.Errorf("nn: %s expects input %v, got %v", m.ModelName, m.InputShape, x.Shape())
	}
	cur := x
	for i, l := range m.Layers {
		if _, err := l.OutShape(cur.Shape()); err != nil {
			return nil, fmt.Errorf("nn: %s layer %d: %w", m.ModelName, i, err)
		}
		cur = l.ForwardCtx(nil, cur)
	}
	return cur, nil
}

// Infer runs one inference drawing every intermediate activation from p
// (which is Reset first), so a warmed pool makes the whole pass free of
// heap allocation. The returned tensor is pool-owned: it is valid only
// until the next Reset/Infer on p. Layer shape errors surface as panics
// from the layers themselves; call Validate once after model construction.
func (m *Model) Infer(p *tensor.Pool, x *tensor.Tensor) (*tensor.Tensor, error) {
	if !shapeEq(x.Shape(), m.InputShape) {
		return nil, fmt.Errorf("nn: %s expects input %v, got %v", m.ModelName, m.InputShape, x.Shape())
	}
	p.Reset()
	cur := x
	for _, l := range m.Layers {
		cur = l.ForwardCtx(p, cur)
	}
	return cur, nil
}

// inferPools recycles inference scratch arenas across Predict calls. Safe
// because Predict extracts only scalars before returning its pool.
var inferPools = sync.Pool{New: func() any { return new(tensor.Pool) }}

// Predict runs one inference and interprets the output as class
// probabilities. It uses pooled scratch storage, so steady-state calls do
// not allocate.
//
// A model instance follows one stream at a time: its unpadded stride-1
// convolutions and its max-pools over a single column remember their last
// answer and, when x's stream stamp says it is the last input moved up a row
// (tensor.SetStamp; the offload engine's lent window carries one), compute
// only the one output row (for a pool, the one window per channel) the two
// do not share (see Conv2D.ForwardCtx and MaxPool2D.ForwardCtx), so the
// feature maps of one instrument cost a fraction of a full pass. An
// unstamped x runs every pass in full. Predict never writes x, and the
// answer never depends on what was remembered. Predict is still safe for
// concurrent use, and a model shared across instruments is still correct —
// their stamps alternate, so it finds nothing to reuse and runs every pass
// in full.
func (m *Model) Predict(x *tensor.Tensor) (Direction, float32, error) {
	p := inferPools.Get().(*tensor.Pool)
	defer inferPools.Put(p)
	out, err := m.Infer(p, x)
	if err != nil {
		return Stationary, 0, err
	}
	if out.Size() != NumClasses {
		return Stationary, 0, fmt.Errorf("nn: %s output size %d, want %d", m.ModelName, out.Size(), NumClasses)
	}
	idx := tensor.Argmax(out)
	return Direction(idx), out.Data()[idx], nil
}

// TotalFLOPs sums per-layer FLOP counts for one batch-1 inference.
func (m *Model) TotalFLOPs() int64 {
	var total int64
	shape := m.InputShape
	for _, l := range m.Layers {
		total += l.FLOPs(shape)
		next, err := l.OutShape(shape)
		if err != nil {
			return total
		}
		shape = next
	}
	return total
}

// Params sums trainable parameter counts.
func (m *Model) Params() int64 {
	var total int64
	for _, l := range m.Layers {
		total += l.Params()
	}
	return total
}
