package nn

import (
	"math"

	"superoffload/internal/tensor"
)

// ---- Linear ----

// linear computes y = x·W + b for x (n,in), W (in,out), b (out).
func linear(ws *workspace, x *tensor.Tensor, w, b *Param) *tensor.Tensor {
	y := ws.get(x.Dim(0), w.W.Dim(1))
	tensor.MatMulInto(y, x, w.W)
	if b != nil {
		n, out := y.Dim(0), y.Dim(1)
		for i := 0; i < n; i++ {
			row := y.Data[i*out : (i+1)*out]
			for j := range row {
				row[j] += b.W.Data[j]
			}
		}
	}
	return y
}

// ---- LayerNorm ----

type layerNormCache struct {
	x      *tensor.Tensor
	invStd []float32
	mean   []float32
}

const lnEps = 1e-5

// layerNorm normalizes each row of x and applies gain g and bias b,
// refilling cache with what the backward needs.
func layerNorm(ws *workspace, x *tensor.Tensor, g, b *Param, cache *layerNormCache) *tensor.Tensor {
	n, c := x.Dim(0), x.Dim(1)
	y := ws.get(n, c)
	*cache = layerNormCache{x: x, invStd: ws.floats(n), mean: ws.floats(n)}
	for i := 0; i < n; i++ {
		row := x.Data[i*c : (i+1)*c]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(c)
		var variance float64
		for _, v := range row {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(c)
		invStd := float32(1 / math.Sqrt(variance+lnEps))
		cache.invStd[i] = invStd
		cache.mean[i] = float32(mean)
		out := y.Data[i*c : (i+1)*c]
		for j, v := range row {
			xhat := (v - float32(mean)) * invStd
			out[j] = xhat*g.W.Data[j] + b.W.Data[j]
		}
	}
	return y
}

// accumLayerNormRows folds rows [lo,hi)'s gain/bias gradient contributions
// into dstG/dstB, one row at a time in ascending order, so the
// weight-gradient replay (see pass.go) reproduces the same fold from any
// starting partial.
func accumLayerNormRows(dstG, dstB []float32, cache *layerNormCache, dy *tensor.Tensor, lo, hi int) {
	c := dy.Dim(1)
	for i := lo; i < hi; i++ {
		xrow := cache.x.Data[i*c : (i+1)*c]
		dyRow := dy.Data[i*c : (i+1)*c]
		invStd := cache.invStd[i]
		mean := cache.mean[i]
		for j := 0; j < c; j++ {
			xhat := (xrow[j] - mean) * invStd
			dstG[j] += dyRow[j] * xhat
			dstB[j] += dyRow[j]
		}
	}
}

// layerNormBackwardDX computes dx; the gain/bias gradients flow through
// the replay (accumLayerNormRows) instead.
func layerNormBackwardDX(ws *workspace, dy *tensor.Tensor, cache *layerNormCache, g *Param) *tensor.Tensor {
	n, c := dy.Dim(0), dy.Dim(1)
	dx := ws.get(n, c)
	dxhat := ws.floats(c)
	for i := 0; i < n; i++ {
		xrow := cache.x.Data[i*c : (i+1)*c]
		dyRow := dy.Data[i*c : (i+1)*c]
		invStd := cache.invStd[i]
		mean := cache.mean[i]
		// Accumulate the two row-reductions the backward needs.
		var sumDxhat, sumDxhatXhat float64
		for j := 0; j < c; j++ {
			xhat := (xrow[j] - mean) * invStd
			d := dyRow[j] * g.W.Data[j]
			dxhat[j] = d
			sumDxhat += float64(d)
			sumDxhatXhat += float64(d) * float64(xhat)
		}
		mDxhat := float32(sumDxhat / float64(c))
		mDxhatXhat := float32(sumDxhatXhat / float64(c))
		out := dx.Data[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			xhat := (xrow[j] - mean) * invStd
			out[j] = (dxhat[j] - mDxhat - xhat*mDxhatXhat) * invStd
		}
	}
	return dx
}

// ---- GELU (tanh approximation) ----

const geluK = 0.7978845608028654 // sqrt(2/pi)

// geluForward returns gelu(x) and gelu′(x) from one tanh. Each result is
// the expression the two-function form evaluated term for term, so on a
// build that fuses no multiply-add (amd64) the bits are the same. The
// amd64 leaf (gelu_amd64.s) replays this sequence, math.Tanh and
// math.Exp included, operation for operation.
func geluForward(x float64) (y, grad float64) {
	t := math.Tanh(geluK * (x + 0.044715*x*x*x))
	return 0.5 * x * (1 + t), 0.5*(1+t) + 0.5*x*(1-t*t)*geluK*(1+3*0.044715*x*x)
}

// gelu applies GELU elementwise and overwrites x with gelu′(x): the
// pre-activation itself is never read again, and its derivative is all
// geluBackward needs. Where the CPU has AVX2 and FMA, whole 4-element
// blocks run through the assembly leaf (gelu_amd64.s); geluGo takes the
// rest, and the two give the same bits.
func gelu(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	y := ws.get(x.Dim(0), x.Dim(1))
	i := geluLeaf(y.Data, x.Data, x.Data)
	geluGo(y.Data[i:], x.Data[i:], x.Data[i:])
	return y
}

// geluGo is gelu's contract and its portable kernel: y = gelu(x) and
// g = gelu′(x), each geluForward rounded to float32. g may be x.
func geluGo(y, g, x []float32) {
	y, g = y[:len(x)], g[:len(x)]
	for i, v := range x {
		yv, gv := geluForward(float64(v))
		y[i] = float32(yv)
		g[i] = float32(gv)
	}
}

// geluBackward returns dx = dy ⊙ grad, grad being the gelu′ the forward
// left in place of its input.
func geluBackward(ws *workspace, dy, grad *tensor.Tensor) *tensor.Tensor {
	dx := ws.get(grad.Dim(0), grad.Dim(1))
	for i, g := range grad.Data {
		dx.Data[i] = dy.Data[i] * g
	}
	return dx
}

// ---- softmax cross-entropy ----

// crossEntropyRows computes the per-row token losses and the gradient
// dlogits = (softmax - onehot)/globalN. globalN is the row count of the
// whole (possibly sequence-sharded) batch: a sequence-parallel rank holds
// only its shard's rows but normalizes by the global count, so summing the
// per-row losses over all ranks in global row order and dividing by
// globalN is the same mean loss for every sharding.
func crossEntropyRows(ws *workspace, logits *tensor.Tensor, targets []int, globalN int) ([]float64, *tensor.Tensor) {
	n, v := logits.Dim(0), logits.Dim(1)
	if len(targets) != n {
		panic("nn: target length mismatch")
	}
	dlogits := ws.get(n, v)
	losses := ws.floats64(n)
	invN := float32(1.0 / float64(globalN))
	for i := 0; i < n; i++ {
		row := logits.Data[i*v : (i+1)*v]
		maxv := row[0]
		for _, x := range row[1:] {
			if x > maxv {
				maxv = x
			}
		}
		var sum float64
		for _, x := range row {
			sum += math.Exp(float64(x - maxv))
		}
		logSum := math.Log(sum) + float64(maxv)
		tgt := targets[i]
		losses[i] = logSum - float64(row[tgt])
		drow := dlogits.Data[i*v : (i+1)*v]
		for j, x := range row {
			p := float32(math.Exp(float64(x) - logSum))
			drow[j] = p * invN
		}
		drow[tgt] -= invN
	}
	return losses, dlogits
}
