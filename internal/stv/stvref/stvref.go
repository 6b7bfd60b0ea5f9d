// Package stvref is the exactness reference the engine is held to: the
// speculation-then-validation schedule (§4.4) as one serial loop over
// one model in DRAM — no ranks, lanes, stores, placement, activation
// tier or tracing. Every (R,S,P) shape of internal/dp, over any store and
// tier, reproduces its losses, Stats, master weights and checkpoint bytes
// bit for bit on the R-way row decomposition of its batches. STE is a
// step followed by Flush.
package stvref

import (
	"io"
	"math"

	"superoffload/internal/data"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
)

// Trainer is the reference loop over one model.
type Trainer struct {
	Model   *nn.GPT
	cfg     stv.Config
	buckets []*stv.Bucket
	ctl     *stv.Verdict
}

// New buckets the model over DRAM-resident optimizer state. cfg's
// Placement and Tracer are ignored: neither changes a bit.
func New(m *nn.GPT, cfg stv.Config) *Trainer {
	store := stv.NewDRAMStore()
	groups := stv.PartitionGroups(m.Params(), cfg.BucketBudget())
	t := &Trainer{Model: m, cfg: cfg, buckets: make([]*stv.Bucket, len(groups)), ctl: stv.NewVerdict(cfg)}
	for i, g := range groups {
		t.buckets[i] = stv.NewBucket(g, store, i)
	}
	return t
}

// StepAccum runs one optimizer step over the micro-batches and returns
// their mean loss: each micro-batch forwards, the previous step's
// verdict applies after the first forward (which is redone when the
// weights changed), the micro-batches' gradients stage into the buckets
// in order, and every bucket steps speculatively over the normalised sum,
// leaving the verdict on its sum of squares pending.
func (t *Trainer) StepAccum(batches []data.Batch) (float64, error) {
	if len(batches) == 0 {
		return 0, nil
	}
	adam := t.ctl.BeginStep()
	var loss float64
	for m, b := range batches {
		l, cache := t.Model.Forward(b.Tokens, b.Targets, b.BatchSize, b.Seq)
		if m == 0 && t.resolve() {
			t.ctl.Redo()
			l, cache = t.Model.Forward(b.Tokens, b.Targets, b.BatchSize, b.Seq)
		}
		t.Model.Params().ZeroGrads()
		t.Model.Backward(cache, t.ctl.Scale())
		for _, bk := range t.buckets {
			bk.AccumGrad(m == 0)
		}
		loss += l
	}
	loss /= float64(len(batches))

	if t.cfg.InjectBad != nil && t.cfg.InjectBad(t.ctl.StepIndex()) {
		t.buckets[0].Grad()[0] = float32(math.Inf(1))
	}
	inv := float32(1 / (t.ctl.Scale() * float64(len(batches))))
	var sumsq float64 // in bucket order from 0: optim.GlobalNorm's grouping
	for _, bk := range t.buckets {
		bk.SpeculativeStep(adam, inv)
		sumsq += optim.SumSquares(bk.Grad())
	}
	t.ctl.Launched(adam, sumsq)
	if t.cfg.Mode == stv.STE {
		t.resolve()
	}
	return loss, nil
}

// resolve applies the pending verdict, if any, to every bucket and
// reports whether the weights changed.
func (t *Trainer) resolve() bool {
	res := t.ctl.Resolve()
	for _, bk := range t.buckets {
		bk.Apply(res)
	}
	return res.WeightsChanged()
}

// Flush resolves the pending verdict and reports whether the last step
// was rolled back or re-executed.
func (t *Trainer) Flush() (bool, error) { return t.resolve(), nil }

// Save writes the checkpoint every engine shape writes for the same
// state; a pending verdict blocks it.
func (t *Trainer) Save(w io.Writer) error { return t.ctl.Save(w, t.buckets) }

// Load restores a checkpoint from any engine shape.
func (t *Trainer) Load(r io.Reader) error { return t.ctl.Load(r, t.buckets) }

// Stats returns the validation counters.
func (t *Trainer) Stats() stv.Stats { return t.ctl.Stats() }

// StepIndex reports how many optimizer steps have been attempted.
func (t *Trainer) StepIndex() int { return t.ctl.StepIndex() }

// MasterWeights returns the fp32 master weights in bucket order.
func (t *Trainer) MasterWeights() []float32 { return stv.MasterWeights(t.buckets) }
