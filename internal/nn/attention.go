package nn

import (
	"math"

	"superoffload/internal/tensor"
)

// attendHeadInto runs causal attention for one head over full-sequence q,
// k, v (T, hs), writing the head output into o (T, hs) and the
// post-softmax score matrix into probs (T, T); both are fully overwritten.
// After the first all-to-all a rank holds exactly these (T, hs) tensors
// for its heads, whatever the sequence-parallel degree.
func attendHeadInto(o, probs, q, k, v *tensor.Tensor, scale float32) {
	tensor.MatMulTInto(probs, q, k) // (T,T)
	probs.Scale(scale)
	applyCausalMask(probs)
	probs.SoftmaxRows()
	tensor.MatMulInto(o, probs, v) // (T,hs)
}

// attendHeadBackwardInto is attendHeadInto's adjoint: given the cached
// probs p and the head's q, k, v and upstream do (all full-sequence), it
// writes dq, dk, dv (each (T, hs), fully overwritten). dp and ds are (T, T)
// caller scratch. No parameters are touched — head attention is
// weight-free.
func attendHeadBackwardInto(dq, dk, dv, dp, ds *tensor.Tensor, p, q, k, v, do *tensor.Tensor, scale float32) {
	seq := p.Dim(0)
	tensor.TMatMulInto(dv, p, do) // (T,hs)
	tensor.MatMulTInto(dp, do, v) // (T,T)

	// Softmax backward row-wise: dS = P ⊙ (dP − rowSum(dP⊙P)).
	for i := 0; i < seq; i++ {
		prow := p.Row(i)
		dprow := dp.Row(i)
		var dot float64
		for j := range prow {
			dot += float64(prow[j]) * float64(dprow[j])
		}
		dsrow := ds.Row(i)
		for j := range prow {
			dsrow[j] = prow[j] * (dprow[j] - float32(dot))
		}
	}
	ds.Scale(scale)

	tensor.MatMulInto(dq, ds, k)  // (T,hs)
	tensor.TMatMulInto(dk, ds, q) // (T,hs)
}

// gatherRows copies column window [col,col+hs) of rows b*seq..(b+1)*seq of
// src (row width w) into dst, seq rows of hs contiguous floats.
func gatherRows(dst []float32, src *tensor.Tensor, b, seq, w, col, hs int) {
	for t := 0; t < seq; t++ {
		at := (b*seq+t)*w + col
		copy(dst[t*hs:(t+1)*hs], src.Data[at:at+hs])
	}
}

// scatterRows is gatherRows' inverse: src's seq rows of hs floats
// overwrite the column window of dst.
func scatterRows(dst *tensor.Tensor, src []float32, b, seq, w, col, hs int) {
	for t := 0; t < seq; t++ {
		at := (b*seq+t)*w + col
		copy(dst.Data[at:at+hs], src[t*hs:(t+1)*hs])
	}
}

// applyCausalMask sets strictly-upper-triangular entries to -inf before the
// softmax so token i attends only to ≤ i.
func applyCausalMask(scores *tensor.Tensor) {
	t := scores.Dim(0)
	negInf := float32(math.Inf(-1))
	for i := 0; i < t; i++ {
		row := scores.Row(i)
		for j := i + 1; j < t; j++ {
			row[j] = negInf
		}
	}
}
