package nn

import (
	"fmt"
	"math"

	"lighttrader/internal/tensor"
)

// Training support (paper Fig. 3): models are trained offline to predict
// the direction of the mid price at a prediction horizon, then deployed
// for inference on the accelerator. Backpropagation covers convolution,
// pooling, dense, flatten, inception, the CHW→sequence transpose and the
// LSTM (BPTT, see train_lstm.go) — i.e. the vanilla CNN, the M1…M5 ladder
// and DeepLOB are trainable. TransLOB's transformer blocks ship with
// deterministic initialisation only.

// LabelDirections computes Fig. 3 labels from a mid-price series: for each
// step t it compares the mean mid over (t, t+horizon] to the current mid
// and labels Up/Down when the relative move exceeds threshold, Stationary
// otherwise (the DeepLOB smoothed-labelling scheme). The returned slice has
// len(mids)-horizon entries.
func LabelDirections(mids []float64, horizon int, threshold float64) []Direction {
	if horizon <= 0 || len(mids) <= horizon {
		return nil
	}
	labels := make([]Direction, len(mids)-horizon)
	// Rolling sum of the next `horizon` mids.
	var sum float64
	for i := 1; i <= horizon; i++ {
		sum += mids[i]
	}
	for t := 0; t < len(labels); t++ {
		mean := sum / float64(horizon)
		switch {
		case mids[t] == 0:
			labels[t] = Stationary
		case (mean-mids[t])/mids[t] > threshold:
			labels[t] = Up
		case (mids[t]-mean)/mids[t] > threshold:
			labels[t] = Down
		default:
			labels[t] = Stationary
		}
		if t+1+horizon < len(mids) {
			sum += mids[t+1+horizon] - mids[t+1]
		}
	}
	return labels
}

// Backprop is implemented by layers that support gradient computation.
// Backward receives the layer's forward input and output plus the loss
// gradient w.r.t. the output, accumulates parameter gradients internally,
// and returns the gradient w.r.t. the input. Update applies the
// accumulated gradients with SGD and clears them.
type Backprop interface {
	Backward(input, output, gradOut *tensor.Tensor) *tensor.Tensor
	Update(lr float32)
}

// actDeriv computes dact/dpre from the activation's output value (all
// supported activations admit this form).
func actDeriv(a Activation, out float32) float32 {
	switch a {
	case ActReLU:
		if out > 0 {
			return 1
		}
		return 0
	case ActLeakyReLU:
		if out > 0 {
			return 1
		}
		return 0.01
	case ActTanh:
		return 1 - out*out
	case ActSigmoid:
		return out * (1 - out)
	default:
		return 1
	}
}

// Backward implements Backprop for Dense.
func (d *Dense) Backward(input, output, gradOut *tensor.Tensor) *tensor.Tensor {
	if d.gw == nil {
		d.gw = tensor.New(d.Out, d.In)
		d.gb = make([]float32, d.Out)
	}
	gradIn := tensor.New(d.In)
	xf, of, gf := input.Data(), output.Data(), gradOut.Data()
	wf, gwf, gif := d.w.Data(), d.gw.Data(), gradIn.Data()
	for o := 0; o < d.Out; o++ {
		gPre := gf[o] * actDeriv(d.Act, of[o])
		if gPre == 0 {
			continue
		}
		d.gb[o] += gPre
		row := wf[o*d.In : (o+1)*d.In]
		grow := gwf[o*d.In : (o+1)*d.In]
		for i, x := range xf {
			grow[i] += gPre * x
			gif[i] += gPre * row[i]
		}
	}
	return gradIn
}

// Update implements Backprop for Dense. SGD is w += (-lr)·g, one fused
// AXPY per parameter block (bit-identical to the scalar loop).
func (d *Dense) Update(lr float32) {
	if d.gw == nil {
		return
	}
	sgdStep(lr, d.w.Data(), d.gw.Data())
	sgdStep(lr, d.b, d.gb)
	d.repack()
}

// sgdStep applies w += (-lr)·g with the unrolled AXPY kernel and clears g.
func sgdStep(lr float32, w, g []float32) {
	tensor.Axpy(-lr, g, w)
	clear(g)
}

// Backward implements Backprop for Conv2D.
func (c *Conv2D) Backward(input, output, gradOut *tensor.Tensor) *tensor.Tensor {
	if c.gw == nil {
		c.gw = tensor.New(c.OutC, c.InC, c.KH, c.KW)
		c.gb = make([]float32, c.OutC)
	}
	h, w := input.Dim(1), input.Dim(2)
	oh, ow := output.Dim(1), output.Dim(2)
	gradIn := tensor.New(c.InC, h, w)
	wf, gwf := c.w.Data(), c.gw.Data()
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*c.SH - c.PadH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*c.SW - c.PadW
				gPre := gradOut.At3(oc, oy, ox) * actDeriv(c.Act, output.At3(oc, oy, ox))
				if gPre == 0 {
					continue
				}
				c.gb[oc] += gPre
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.KH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						base := ((oc*c.InC+ic)*c.KH + ky) * c.KW
						for kx := 0; kx < c.KW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							gwf[base+kx] += gPre * input.At3(ic, iy, ix)
							gradIn.Set3(ic, iy, ix, gradIn.At3(ic, iy, ix)+gPre*wf[base+kx])
						}
					}
				}
			}
		}
	}
	return gradIn
}

// Update implements Backprop for Conv2D.
func (c *Conv2D) Update(lr float32) {
	if c.gw == nil {
		return
	}
	sgdStep(lr, c.w.Data(), c.gw.Data())
	sgdStep(lr, c.b, c.gb)
	c.repack()
}

// Backward implements Backprop for MaxPool2D: the gradient routes to each
// window's argmax.
func (p *MaxPool2D) Backward(input, output, gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(input.Shape()...)
	for c := 0; c < output.Dim(0); c++ {
		for oy := 0; oy < output.Dim(1); oy++ {
			for ox := 0; ox < output.Dim(2); ox++ {
				g := gradOut.At3(c, oy, ox)
				if g == 0 {
					continue
				}
				// Recover the argmax location.
				by, bx := oy*p.SH, ox*p.SW
				best := input.At3(c, by, bx)
				for ky := 0; ky < p.KH; ky++ {
					for kx := 0; kx < p.KW; kx++ {
						if v := input.At3(c, oy*p.SH+ky, ox*p.SW+kx); v > best {
							best = v
							by, bx = oy*p.SH+ky, ox*p.SW+kx
						}
					}
				}
				gradIn.Set3(c, by, bx, gradIn.At3(c, by, bx)+g)
			}
		}
	}
	return gradIn
}

// Update implements Backprop for MaxPool2D (no parameters).
func (p *MaxPool2D) Update(float32) {}

// Backward implements Backprop for Flatten.
func (Flatten) Backward(input, _, gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(input.Shape()...)
}

// Update implements Backprop for Flatten.
func (Flatten) Update(float32) {}

// Trainer performs SGD on a model whose layers all implement Backprop
// (the final SoftmaxLayer is folded into the cross-entropy loss).
type Trainer struct {
	Model *Model
	LR    float32
}

// NewTrainer validates that the model is trainable and returns a trainer.
func NewTrainer(m *Model, lr float32) (*Trainer, error) {
	layers := trainableStack(m)
	if layers == nil {
		return nil, fmt.Errorf("nn: %s contains layers without backpropagation support", m.Name())
	}
	return &Trainer{Model: m, LR: lr}, nil
}

// trainableStack returns the layers to backpropagate through (excluding a
// trailing SoftmaxLayer, which folds into the cross-entropy loss), or nil if
// any lacks Backprop support.
func trainableStack(m *Model) []Layer {
	layers := m.Layers
	if len(layers) > 0 {
		if _, ok := layers[len(layers)-1].(SoftmaxLayer); ok {
			layers = layers[:len(layers)-1]
		}
	}
	for _, l := range layers {
		if _, ok := l.(Backprop); !ok {
			return nil
		}
	}
	return layers
}

// Step runs one SGD update on a single example and returns the
// cross-entropy loss before the update.
func (t *Trainer) Step(x *tensor.Tensor, label Direction) (float64, error) {
	layers := trainableStack(t.Model)
	// Forward, caching inputs and outputs.
	inputs := make([]*tensor.Tensor, len(layers))
	outputs := make([]*tensor.Tensor, len(layers))
	cur := x
	for i, l := range layers {
		if _, err := l.OutShape(cur.Shape()); err != nil {
			return 0, fmt.Errorf("nn: train: layer %d: %w", i, err)
		}
		inputs[i] = cur
		cur = l.ForwardCtx(nil, cur)
		outputs[i] = cur
	}
	logits := cur
	if logits.Size() != NumClasses {
		return 0, fmt.Errorf("nn: train: logits size %d", logits.Size())
	}
	probs := tensor.Softmax(logits)
	p := float64(probs.Data()[label])
	loss := -math.Log(math.Max(p, 1e-12))
	// dL/dlogits = softmax - onehot.
	grad := probs.Clone()
	grad.Data()[label] -= 1
	// Backward.
	for i := len(layers) - 1; i >= 0; i-- {
		grad = layers[i].(Backprop).Backward(inputs[i], outputs[i], grad)
	}
	for _, l := range layers {
		l.(Backprop).Update(t.LR)
	}
	return loss, nil
}

// Epoch trains over a dataset once, returning the mean loss.
func (t *Trainer) Epoch(xs []*tensor.Tensor, labels []Direction) (float64, error) {
	if len(xs) != len(labels) {
		return 0, fmt.Errorf("nn: train: %d examples vs %d labels", len(xs), len(labels))
	}
	var total float64
	for i := range xs {
		loss, err := t.Step(xs[i], labels[i])
		if err != nil {
			return 0, err
		}
		total += loss
	}
	if len(xs) == 0 {
		return 0, nil
	}
	return total / float64(len(xs)), nil
}

// Accuracy evaluates classification accuracy over a dataset.
func Accuracy(m *Model, xs []*tensor.Tensor, labels []Direction) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	correct := 0
	for i := range xs {
		dir, _, err := m.Predict(xs[i])
		if err != nil {
			return 0, err
		}
		if dir == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs)), nil
}
