package core

import (
	"superoffload/internal/hw"
	"superoffload/internal/sched"
	"superoffload/internal/sim"
)

// Options toggles individual SuperOffload optimizations — the knobs the
// Table 2 ablation flips. The zero value of each field means "enabled";
// construct with DefaultOptions and disable selectively.
type Options struct {
	GraceAdam         bool // §4.6: ARM-optimized Adam (else CPU-Adam port)
	SuperchipCasting  bool // §4.5: cast on GPU, move fp32 pinned
	Speculation       bool // §4.4: STV instead of STE
	BucketRepartition bool // §4.3: 64 MB buckets + GPU-retained tail
	NUMABinding       bool // §4.7: bind ranks to their Superchip's cores
}

// DefaultOptions enables everything.
func DefaultOptions() Options {
	return Options{GraceAdam: true, SuperchipCasting: true, Speculation: true, BucketRepartition: true, NUMABinding: true}
}

// Plan is the planner's full decision record for a workload.
type Plan struct {
	Policy       Policy
	CastPath     CastPath
	BucketBytes  int64
	BucketParams int64
	NBuckets     int
	GPUBuckets   int
	Exec         sched.Execution
	Efficiency   float64 // Eq. 1-3 efficiency for the flow decision
	// ActResidentLayers and ActSpill are the activation tier's co-plan
	// under the same HBM budget (see ActCoPlan): the largest write-behind
	// window that fits next to the optimizer placement, and whether it
	// spills any layers at all.
	ActResidentLayers int
	ActSpill          bool
}

// System is the SuperOffload training system (implements sched.System).
type System struct {
	Opts Options
}

// New returns a fully-enabled SuperOffload system.
func New() *System { return &System{Opts: DefaultOptions()} }

// NewWith returns a system with the given ablation toggles.
func NewWith(o Options) *System { return &System{Opts: o} }

// Name implements sched.System.
func (s *System) Name() string { return "SuperOffload" }

func (s *System) adamImpl() hw.AdamImpl {
	if s.Opts.GraceAdam {
		return hw.AdamGrace
	}
	return hw.AdamCPU
}

func (s *System) bucketBytes() int64 {
	if s.Opts.BucketRepartition {
		return hw.SuperOffloadBucketBytes
	}
	return hw.ZeROOffloadBucketBytes
}

// hostLink returns the host link the rank's traffic takes (§4.7).
func (s *System) hostLink(w sched.Workload) hw.LinkSpec {
	node := w.Cluster.Node
	if s.Opts.NUMABinding || node.ChipCount == 1 {
		return node.Chip.Link
	}
	return node.CrossNUMA
}

// ChoosePolicy applies §4.2: weight-stationary unless (a) the model does
// not fit GPU memory that way, or (b) activations dominate and the Eq. 1-3
// efficiency clears the 60% bar so streaming is free anyway.
func (s *System) ChoosePolicy(w sched.Workload, exec sched.Execution, bucketParams int64, chips int) (Policy, float64) {
	chip := w.Cluster.Node.Chip
	shard := w.Model.Params() / int64(chips)
	eff := Efficiency(exec.MicroBatch, w.Seq, shard,
		hw.AchievableGPUFLOPS(chip, w.Model.Hidden, w.Seq), chip.Link.PeakBW)
	if ok, _ := Fits(chip, w.Model, shard, WeightStationary, exec, w.Seq, bucketParams, 0); !ok {
		return WeightFlow, eff
	}
	if ActivationsDominate(w.Model, exec.MicroBatch, w.Seq) && eff >= MinEfficiencyForFlow {
		return WeightFlow, eff
	}
	return WeightStationary, eff
}

// fitFunc is the memory test ChooseExecution searches under: whether a
// micro-batch (with or without activation checkpointing) fits GPU and CPU
// memory under the policy §4.2 picks for it, nothing retained on the GPU.
func (s *System) fitFunc(w sched.Workload, bucketParams int64) sched.FitFunc {
	chip, chips := w.Cluster.Node.Chip, w.Chips()
	shard := w.Model.Params() / int64(chips)
	return func(micro int, ckpt bool) bool {
		e := sched.Execution{MicroBatch: micro, GradAccum: 1, Checkpoint: ckpt}
		pol, _ := s.ChoosePolicy(w, e, bucketParams, chips)
		ok, _ := Fits(chip, w.Model, shard, pol, e, w.Seq, bucketParams, 0)
		return ok
	}
}

// decide is the planner: bucket partition, execution (each candidate timed
// under the policy it would run with), policy, casting, the §4.3
// GPU-retained tail — a grid of a handful of simulations — and the
// activation co-plan. It returns the decision record with the winning
// schedule's iteration time and engine; Describe and Plan are two views of
// it, so they cannot disagree.
func (s *System) decide(w sched.Workload) (Plan, float64, *sim.Engine, bool) {
	chip, chips := w.Cluster.Node.Chip, w.Chips()
	shard := w.Model.Params() / int64(chips)
	bb := s.bucketBytes()
	nb := int((2*shard + bb - 1) / bb)
	if nb < 1 {
		nb = 1
	}
	bucketParams := shard / int64(nb)

	exec, ok := sched.ChooseExecution(w.PerGPUBatch(), s.fitFunc(w, bucketParams), func(e sched.Execution) float64 {
		pol, _ := s.ChoosePolicy(w, e, bucketParams, chips)
		t, _ := s.simulate(w, e, pol, bucketParams, nb, 0)
		return t
	})
	if !ok {
		return Plan{}, 0, nil, false
	}
	pol, eff := s.ChoosePolicy(w, exec, bucketParams, chips)
	gpuBuckets, t, engine := s.searchGPUBuckets(w, exec, pol, bucketParams, nb)
	actW, actSpill := ActCoPlan(chip, w.Model, shard, pol, exec, w.Seq, bucketParams, gpuBuckets)
	return Plan{Policy: pol, CastPath: s.castPath(chip, bucketParams), BucketBytes: bb,
		BucketParams: bucketParams, NBuckets: nb, GPUBuckets: gpuBuckets,
		Exec: exec, Efficiency: eff,
		ActResidentLayers: actW, ActSpill: actSpill}, t, engine, true
}

// Describe returns the planner's full decision record — policy, casting,
// bucket partition, the GPU-retained tail and the activation co-plan —
// without the final throughput accounting. Used by the superplan CLI and
// the placement subsystem.
func (s *System) Describe(w sched.Workload) (Plan, bool) {
	p, _, _, ok := s.decide(w)
	return p, ok
}

// Plan implements sched.System: the decision Describe reports, finalised
// into iteration time, GPU idle fraction and throughput.
func (s *System) Plan(w sched.Workload) sched.Result {
	res := sched.Result{System: s.Name(), Workload: w}
	p, t, engine, ok := s.decide(w)
	if !ok {
		res.OOM = "no micro-batch fits (GPU or CPU memory)"
		return res
	}
	res.Exec = p.Exec
	res.Fits = true
	res.IterTime = t
	res.GPUIdleFrac = gpuIdleOf(engine)
	res.Finalize(w.Cluster.Node.Chip)
	return res
}

// searchGPUBuckets grid-searches the GPU-retained bucket count (§4.3)
// under the memory constraint, returning the winning count with its
// simulated iteration time and engine. Weight-flow policies and ablated
// BucketRepartition keep everything offloaded (count 0).
func (s *System) searchGPUBuckets(w sched.Workload, exec sched.Execution, pol Policy, bucketParams int64, nb int) (int, float64, *sim.Engine) {
	gpuBuckets := 0
	bestT, bestEngine := s.simulate(w, exec, pol, bucketParams, nb, 0)
	if s.Opts.BucketRepartition && pol == WeightStationary {
		chip := w.Cluster.Node.Chip
		shard := w.Model.Params() / int64(w.Chips())
		for _, n := range gridPoints(nb) {
			if ok, _ := Fits(chip, w.Model, shard, pol, exec, w.Seq, bucketParams, n); !ok {
				continue
			}
			if t, e := s.simulate(w, exec, pol, bucketParams, nb, n); t < bestT {
				bestT, bestEngine, gpuBuckets = t, e, n
			}
		}
	}
	return gpuBuckets, bestT, bestEngine
}

func (s *System) castPath(chip hw.Chip, bucketParams int64) CastPath {
	if !s.Opts.SuperchipCasting {
		return CastCPUMoveFP16
	}
	return ChooseCastPath(chip, bucketParams)
}

// simulate builds and times the schedule for a concrete plan, adding
// ZeRO-DP collective costs for multi-chip workloads (§4.7).
func (s *System) simulate(w sched.Workload, exec sched.Execution, pol Policy, bucketParams int64, nb, gpuBuckets int) (float64, *sim.Engine) {
	chip := w.Cluster.Node.Chip
	if !s.Opts.NUMABinding && w.Cluster.Node.ChipCount > 1 {
		// A misbound rank's optimizer traffic crosses the socket
		// fabric on every access, not just on transfers (§4.7).
		chip.CPU.MemBW *= hw.NUMAMisbindCPUBWFraction
	}
	p := sched.OffloadPlan{
		Chip: chip, Link: s.hostLink(w), Model: w.Model, Exec: exec, Seq: w.Seq,
		NBuckets: nb, BucketParams: bucketParams,
		GPUBuckets:  gpuBuckets,
		CastOnGPU:   s.castPath(chip, bucketParams) == CastGPUMoveFP32,
		Speculative: s.Opts.Speculation,
		CPUImpl:     s.adamImpl(),
		WeightFlow:  pol == WeightFlow,
	}
	engine, st, err := sched.Build(p)
	if err != nil {
		return 0, nil
	}
	t := st.IterTime + s.dpOverhead(w, exec)
	return t, engine
}

// dpOverhead is the per-iteration ZeRO-DP collective cost that cannot be
// hidden: reduce-scatter of gradients overlaps backward on the fabric, but
// the tail plus the fp16 parameter all-gather before the next forward is
// exposed on the slowest link. Partitioning before offloading keeps the
// host-link volume constant (§4.7), so only the inter-GPU fabric appears
// here.
func (s *System) dpOverhead(w sched.Workload, exec sched.Execution) float64 {
	n := w.Chips()
	if n <= 1 {
		return 0
	}
	link := w.Cluster.DataParallelLink(n)
	shardBytes := 2 * w.Model.Params() / int64(n)
	// Exposed fraction: the all-gather of the first shard needed by the
	// next forward plus the reduce-scatter tail; the bulk overlaps.
	rs := hw.CollectiveTime(hw.ReduceScatter, n, shardBytes, link)
	ag := hw.CollectiveTime(hw.AllGather, n, shardBytes, link)
	const exposedFraction = 0.25
	return exposedFraction * (rs + ag)
}

// gridPoints returns the candidate GPU-retained bucket counts for the grid
// search: 0 plus a geometric ladder up to a quarter of all buckets.
func gridPoints(nb int) []int {
	pts := []int{1, 2, 4, 8, 16, 32, 64}
	var out []int
	for _, p := range pts {
		if p <= nb/2 {
			out = append(out, p)
		}
	}
	return out
}

// gpuIdleOf is the GPU idle share of an engine simulate has run, over the
// whole horizon (warm-up bias is small with ≥3 iterations); host-sync
// stalls occupy the stream but count as idle. A nil engine (simulate's
// error path) reads 0.
func gpuIdleOf(e *sim.Engine) float64 {
	if e == nil {
		return 0
	}
	ms := e.Makespan()
	u := e.Utilization(sched.ResGPU, ms)
	return 1 - (u.Busy-u.ByTag[sim.TagIdleWait])/ms
}
