// Package nn implements a real GPT-style transformer with hand-written
// forward and backward passes on the fp32 tensor substrate. It exists so
// the algorithmic parts of the paper — speculation-then-validation with
// exact rollback, mixed-precision casting, bucketized optimizer updates —
// run on genuine gradients rather than simulated ones, and so training
// loss curves (Fig. 14) can be regenerated for real.
package nn

import (
	"fmt"

	"superoffload/internal/tensor"
)

// Param is one named trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape()...)}
}

// Size returns the parameter element count.
func (p *Param) Size() int { return p.W.Size() }

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

func (p *Param) String() string { return fmt.Sprintf("%s%v", p.Name, p.W.Shape()) }

// Params is an ordered parameter list.
type Params []*Param

// TotalSize sums element counts.
func (ps Params) TotalSize() int {
	n := 0
	for _, p := range ps {
		n += p.Size()
	}
	return n
}

// ZeroGrads clears every gradient.
func (ps Params) ZeroGrads() {
	for _, p := range ps {
		p.ZeroGrad()
	}
}
