// Package sched defines the common workload/result vocabulary shared by
// every training system in the repository (the SuperOffload planner in
// internal/core and the baselines in internal/baselines), plus the generic
// bucketized offload iteration builder that turns an offload plan into a
// task DAG on the discrete-event simulator.
package sched

import (
	"fmt"
	"math"

	"superoffload/internal/hw"
	"superoffload/internal/model"
)

// Workload is one training setting: a model on a cluster with a global
// batch size and sequence length.
type Workload struct {
	Cluster     hw.Cluster
	Model       model.Config
	GlobalBatch int
	Seq         int
}

// Chips returns the total Superchip count.
func (w Workload) Chips() int { return w.Cluster.TotalChips() }

// PerGPUBatch returns the per-rank batch share (at least 1).
func (w Workload) PerGPUBatch() int {
	b := w.GlobalBatch / w.Chips()
	if b < 1 {
		b = 1
	}
	return b
}

func (w Workload) String() string {
	return fmt.Sprintf("%s bsz=%d seq=%d on %s", w.Model.Name, w.GlobalBatch, w.Seq, w.Cluster)
}

// Execution describes how the per-rank batch is actually run after OOM
// mitigation (§5.2: gradient accumulation with smaller micro-batches, or
// activation checkpointing with the largest fitting micro-batch).
type Execution struct {
	MicroBatch int
	GradAccum  int
	Checkpoint bool
}

func (e Execution) String() string {
	s := fmt.Sprintf("micro=%d accum=%d", e.MicroBatch, e.GradAccum)
	if e.Checkpoint {
		s += " +ckpt"
	}
	return s
}

// Result is one system's outcome on a workload.
type Result struct {
	System   string
	Workload Workload
	Fits     bool
	OOM      string // reason when !Fits
	Exec     Execution
	// IterTime is the steady-state wall time for one global batch.
	IterTime float64
	// TFLOPS is effective per-GPU throughput: model FLOPs (recompute
	// excluded, §5.2) over iteration time.
	TFLOPS float64
	// MFU is TFLOPS over the GPU's peak.
	MFU float64
	// GPUIdleFrac is the GPU idle share of the iteration (Figs. 4/15).
	GPUIdleFrac float64
}

// Finalize fills the derived throughput fields from IterTime.
func (r *Result) Finalize(chip hw.Chip) {
	if !r.Fits || r.IterTime <= 0 {
		r.TFLOPS, r.MFU = 0, 0
		return
	}
	flops := r.Workload.Model.IterFLOPs(r.Workload.GlobalBatch, r.Workload.Seq)
	perGPU := flops / float64(r.Workload.Chips())
	r.TFLOPS = perGPU / r.IterTime / 1e12
	r.MFU = perGPU / r.IterTime / chip.GPU.PeakFLOPS
}

// System is one training solution (SuperOffload or a baseline).
type System interface {
	Name() string
	Plan(w Workload) Result
}

// FitFunc reports whether a per-rank execution fits in memory.
type FitFunc func(micro int, checkpoint bool) bool

// TimeFunc returns the iteration time for a full global batch under the
// given execution.
type TimeFunc func(e Execution) float64

// ChooseExecution implements the paper's OOM-mitigation policy: try the
// target per-rank batch directly; otherwise compare (a) gradient
// accumulation with the largest fitting micro-batch and (b) activation
// checkpointing with the largest fitting micro-batch, and keep whichever
// yields the shorter iteration (§5.2 "we report the higher throughput
// achieved between these two approaches").
func ChooseExecution(perRankBatch int, fits FitFunc, timeOf TimeFunc) (Execution, bool) {
	if fits(perRankBatch, false) {
		return Execution{MicroBatch: perRankBatch, GradAccum: 1}, true
	}
	var candidates []Execution
	if m := largestFitting(perRankBatch, func(b int) bool { return fits(b, false) }); m > 0 {
		candidates = append(candidates, Execution{MicroBatch: m, GradAccum: ceilDiv(perRankBatch, m)})
	}
	if m := largestFitting(perRankBatch, func(b int) bool { return fits(b, true) }); m > 0 {
		candidates = append(candidates, Execution{MicroBatch: m, GradAccum: ceilDiv(perRankBatch, m), Checkpoint: true})
	}
	if len(candidates) == 0 {
		return Execution{}, false
	}
	best := candidates[0]
	bestT := timeOf(best)
	for _, c := range candidates[1:] {
		if t := timeOf(c); t < bestT {
			best, bestT = c, t
		}
	}
	return best, true
}

// AnalyticPlan is the body every analytic system's Plan ends in: choose the
// execution under the §5.2 policy, then either report oom or time the
// winner — IterTime from timeOf, the GPU idle share as whatever of the
// iteration is not useful forward+backward compute (exposed transfers,
// optimizer and collectives included, matching the Fig. 4 measurement),
// and the throughput fields from Finalize.
func AnalyticPlan(name string, w Workload, oom string, fits FitFunc, timeOf TimeFunc) Result {
	res := Result{System: name, Workload: w}
	exec, ok := ChooseExecution(w.PerGPUBatch(), fits, timeOf)
	if !ok {
		res.OOM = oom
		return res
	}
	chip := w.Cluster.Node.Chip
	res.Fits, res.Exec, res.IterTime = true, exec, timeOf(exec)
	if res.IterTime > 0 {
		fwd, bwd := ComputeTimes(chip, w.Model, exec.MicroBatch, w.Seq, exec.Checkpoint)
		busy := float64(exec.GradAccum) * (fwd + bwd) / EffBatchEfficiency(exec.MicroBatch, w.Seq)
		res.GPUIdleFrac = math.Min(1, math.Max(0, 1-busy/res.IterTime))
	}
	res.Finalize(chip)
	return res
}

func largestFitting(maxB int, fits func(int) bool) int {
	for b := maxB; b >= 1; b-- {
		if fits(b) {
			return b
		}
	}
	return 0
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ComputeTimes returns forward and backward wall times for one micro-batch
// on the chip at the achievable transformer efficiency. Checkpointing adds
// a recompute forward to the backward pass.
func ComputeTimes(chip hw.Chip, m model.Config, micro, seq int, checkpoint bool) (fwd, bwd float64) {
	ach := hw.AchievableGPUFLOPS(chip, m.Hidden, seq)
	f := m.FwdFLOPsPerIter(micro, seq)
	fwd = f / ach
	bwd = 2 * f / ach
	if checkpoint {
		bwd += f / ach // recompute forward inside backward
	}
	return fwd, bwd
}

// MaxTrainable returns the largest Appendix A model the system can train
// on the cluster at the given batch/seq — the Fig. 13 measurement.
func MaxTrainable(s System, cluster hw.Cluster, batch, seq int) model.Config {
	var best model.Config
	for _, m := range model.AppendixA() {
		w := Workload{Cluster: cluster, Model: m, GlobalBatch: batch, Seq: seq}
		if r := s.Plan(w); r.Fits && m.Params() > best.Params() {
			best = m
		}
	}
	return best
}

// EffBatchEfficiency penalizes tiny micro-batches: below a full wave the
// GPU loses occupancy roughly linearly. micro≥4 is full speed at seq 1024;
// longer sequences saturate at smaller micro-batches.
func EffBatchEfficiency(micro, seq int) float64 {
	tokens := float64(micro * seq)
	const fullTokens = 4 * 1024
	if tokens >= fullTokens {
		return 1
	}
	return math.Max(0.55, 0.55+0.45*tokens/fullTokens)
}
