package offload

import (
	"lighttrader/internal/feed"
	"lighttrader/internal/nn"
	"lighttrader/internal/tensor"
)

// BuildDataset converts a tick trace into training pairs per paper Fig. 3:
// each example is the offload engine's feature map over the Window most
// recent ticks, labelled by the direction of the mean mid price over the
// next horizon ticks relative to the current mid (threshold = relative
// move below which the label is Stationary).
//
// Examples start once the window has filled and stop horizon ticks before
// the end so every example has a label.
func BuildDataset(ticks []feed.Tick, norm Normalizer, horizon int, threshold float64) ([]*tensor.Tensor, []nn.Direction) {
	if len(ticks) < nn.Window+horizon || horizon <= 0 {
		return nil, nil
	}
	mids := make([]float64, len(ticks))
	for i := range ticks {
		mids[i] = ticks[i].Snapshot.MidPrice()
	}
	labels := nn.LabelDirections(mids, horizon, threshold)

	eng := NewEngine(norm, len(ticks))
	var xs []*tensor.Tensor
	var ys []nn.Direction
	for i := range ticks {
		eng.Push(ticks[i].Snapshot)
		if !eng.Warm() || i >= len(labels) {
			continue
		}
		in, ok := eng.Pop()
		if !ok {
			continue
		}
		xs = append(xs, in.Tensor)
		ys = append(ys, labels[i])
	}
	return xs, ys
}
