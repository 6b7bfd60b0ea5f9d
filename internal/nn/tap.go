package nn

import "superoffload/internal/tensor"

// ActivationTap observes layer-boundary activation lifecycle during a
// forward/backward pass. internal/act implements it as the activation
// offloading tier; the model side only promises the protocol:
//
//   - BeginPass opens a pass (depth, this holder's tokens, and the
//     attention span feeding the GEMM model);
//   - StashLayer hands over layer l's retained forward buffers, in
//     forward order, immediately after the layer computes. The tap may
//     copy them out and overwrite them in place;
//   - FetchLayer is called at the top of layer l's backward step
//     (descending order, every layer) and must return with the layer's
//     buffers restored to their stashed contents.
//
// The buffers alias the pass's FwdCache arena: they stay valid until the
// pass's backward and weight-gradient replay complete, and the slot's next
// forward fully overwrites them.
type ActivationTap interface {
	BeginPass(layers, tokens, seq int)
	StashLayer(layer int, bufs [][]float32)
	FetchLayer(layer int)
}

// actBufs enumerates the block's retained forward buffers for the
// activation tap: every slice BackwardSPStage and the weight-gradient
// replay read, each exactly once, in a list the cache reuses pass after
// pass. geluGrad is a derivative the forward writes, not a forward
// activation, but backward reads it like one, so it is stashed with
// them. The d* gradient slots are pass outputs, so they stay resident.
func (lc *layerCache) actBufs() [][]float32 {
	bufs := append(lc.bufs[:0],
		lc.ln1.x.Data, lc.ln1.invStd, lc.ln1.mean, lc.ln1y.Data,
		lc.attnOut.Data, lc.res1.Data,
		lc.ln2.invStd, lc.ln2.mean, lc.ln2y.Data,
		lc.geluGrad.Data, lc.hGelu.Data,
	)
	for _, heads := range [...][]*tensor.Tensor{lc.q, lc.k, lc.v, lc.probs} {
		for _, t := range heads {
			bufs = append(bufs, t.Data)
		}
	}
	lc.bufs = bufs
	return bufs
}
