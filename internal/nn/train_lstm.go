package nn

import "lighttrader/internal/tensor"

// Backpropagation for the recurrent and structural layers, which makes
// DeepLOB (conv blocks → inception → LSTM → dense) fully trainable.
// TransLOB's transformer blocks remain inference-only.

// Backward implements Backprop for LSTM via backpropagation through time.
// The forward activations are recomputed here (activation recomputation
// rather than caching keeps ForwardCtx allocation-free for the inference hot
// path at the cost of one extra forward pass during training).
func (l *LSTM) Backward(input, output, gradOut *tensor.Tensor) *tensor.Tensor {
	T := input.Dim(0)
	H := l.Hidden
	D := l.In
	if l.gwx == nil {
		l.gwx = tensor.New(4*H, D)
		l.gwh = tensor.New(4*H, H)
		l.gb = make([]float32, 4*H)
	}

	// Recompute the forward pass, caching gate activations and states.
	iG := make([][]float32, T) // input gate (post-sigmoid)
	fG := make([][]float32, T) // forget gate
	gG := make([][]float32, T) // candidate (post-tanh)
	oG := make([][]float32, T) // output gate
	cS := make([][]float32, T) // cell state
	hS := make([][]float32, T) // hidden state
	wxf, whf := l.wx.Data(), l.wh.Data()
	prevH := make([]float32, H)
	prevC := make([]float32, H)
	gates := make([]float32, 4*H)
	for t := 0; t < T; t++ {
		xt := input.Data()[t*D : (t+1)*D]
		copy(gates, l.b)
		for g := 0; g < 4*H; g++ {
			sum := gates[g]
			row := wxf[g*D : (g+1)*D]
			for i, v := range xt {
				sum += row[i] * v
			}
			hrow := whf[g*H : (g+1)*H]
			for i, v := range prevH {
				sum += hrow[i] * v
			}
			gates[g] = sum
		}
		iG[t] = make([]float32, H)
		fG[t] = make([]float32, H)
		gG[t] = make([]float32, H)
		oG[t] = make([]float32, H)
		cS[t] = make([]float32, H)
		hS[t] = make([]float32, H)
		for j := 0; j < H; j++ {
			iG[t][j] = sigmoid32(gates[j])
			fG[t][j] = sigmoid32(gates[H+j])
			gG[t][j] = tanh32(gates[2*H+j])
			oG[t][j] = sigmoid32(gates[3*H+j])
			cS[t][j] = fG[t][j]*prevC[j] + iG[t][j]*gG[t][j]
			hS[t][j] = oG[t][j] * tanh32(cS[t][j])
		}
		prevH, prevC = hS[t], cS[t]
	}

	// BPTT.
	gradIn := tensor.New(T, D)
	dhNext := make([]float32, H)
	dcNext := make([]float32, H)
	dz := make([]float32, 4*H)
	gwx, gwh := l.gwx.Data(), l.gwh.Data()
	for t := T - 1; t >= 0; t-- {
		dh := make([]float32, H)
		copy(dh, dhNext)
		if l.ReturnLast {
			if t == T-1 {
				for j := 0; j < H; j++ {
					dh[j] += gradOut.Data()[j]
				}
			}
		} else {
			for j := 0; j < H; j++ {
				dh[j] += gradOut.Data()[t*H+j]
			}
		}
		var prevCt []float32
		if t > 0 {
			prevCt = cS[t-1]
		} else {
			prevCt = make([]float32, H)
		}
		for j := 0; j < H; j++ {
			tc := tanh32(cS[t][j])
			do := dh[j] * tc * oG[t][j] * (1 - oG[t][j])
			dc := dcNext[j] + dh[j]*oG[t][j]*(1-tc*tc)
			di := dc * gG[t][j] * iG[t][j] * (1 - iG[t][j])
			df := dc * prevCt[j] * fG[t][j] * (1 - fG[t][j])
			dg := dc * iG[t][j] * (1 - gG[t][j]*gG[t][j])
			dcNext[j] = dc * fG[t][j]
			dz[j] = di
			dz[H+j] = df
			dz[2*H+j] = dg
			dz[3*H+j] = do
		}
		xt := input.Data()[t*D : (t+1)*D]
		var prevHt []float32
		if t > 0 {
			prevHt = hS[t-1]
		} else {
			prevHt = make([]float32, H)
		}
		dx := gradIn.Data()[t*D : (t+1)*D]
		for j := range dhNext {
			dhNext[j] = 0
		}
		for g := 0; g < 4*H; g++ {
			d := dz[g]
			l.gb[g] += d
			if d == 0 {
				continue
			}
			grow := gwx[g*D : (g+1)*D]
			wrow := wxf[g*D : (g+1)*D]
			for i := range xt {
				grow[i] += d * xt[i]
				dx[i] += d * wrow[i]
			}
			ghrow := gwh[g*H : (g+1)*H]
			whrow := whf[g*H : (g+1)*H]
			for i := range prevHt {
				ghrow[i] += d * prevHt[i]
				dhNext[i] += d * whrow[i]
			}
		}
	}
	return gradIn
}

// Update implements Backprop for LSTM.
func (l *LSTM) Update(lr float32) {
	if l.gwx == nil {
		return
	}
	sgdStep(lr, l.wx.Data(), l.gwx.Data())
	sgdStep(lr, l.wh.Data(), l.gwh.Data())
	sgdStep(lr, l.b, l.gb)
	l.repack()
}

// Backward implements Backprop for SeqFromCHW: a pure layout inverse.
func (SeqFromCHW) Backward(input, _, gradOut *tensor.Tensor) *tensor.Tensor {
	c, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	gradIn := tensor.New(c, h, w)
	for t := 0; t < h; t++ {
		for ci := 0; ci < c; ci++ {
			for wi := 0; wi < w; wi++ {
				gradIn.Set3(ci, t, wi, gradOut.At2(t, ci*w+wi))
			}
		}
	}
	return gradIn
}

// Update implements Backprop for SeqFromCHW.
func (SeqFromCHW) Update(float32) {}

// Backward implements Backprop for Inception: the output-channel gradient
// is split back to the branches and each branch backpropagates through its
// own layers (branch forward activations are recomputed).
func (in *Inception) Backward(input, output, gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(input.Shape()...)
	cOff := 0
	for _, branch := range in.Branches {
		// Recompute branch forwards, caching per-layer inputs/outputs.
		inputs := make([]*tensor.Tensor, len(branch))
		outputs := make([]*tensor.Tensor, len(branch))
		cur := input
		for i, l := range branch {
			inputs[i] = cur
			cur = l.ForwardCtx(nil, cur)
			outputs[i] = cur
		}
		// Slice this branch's share of the concatenated gradient.
		bc := cur.Dim(0)
		g := tensor.New(bc, cur.Dim(1), cur.Dim(2))
		for c := 0; c < bc; c++ {
			for y := 0; y < cur.Dim(1); y++ {
				for x := 0; x < cur.Dim(2); x++ {
					g.Set3(c, y, x, gradOut.At3(cOff+c, y, x))
				}
			}
		}
		cOff += bc
		for i := len(branch) - 1; i >= 0; i-- {
			g = branch[i].(Backprop).Backward(inputs[i], outputs[i], g)
		}
		tensor.AddInPlace(gradIn, g)
	}
	return gradIn
}

// Update implements Backprop for Inception.
func (in *Inception) Update(lr float32) {
	for _, branch := range in.Branches {
		for _, l := range branch {
			l.(Backprop).Update(lr)
		}
	}
}
