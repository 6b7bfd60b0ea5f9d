// Package baselines implements the seven systems the paper compares
// against (Appendix B): PyTorch DDP, Megatron tensor parallelism, ZeRO-2,
// ZeRO-3, ZeRO-Offload, ZeRO-Infinity and FSDP-CPU-Offload. Each provides
// a memory model (what fits) and a schedule (how long an iteration takes),
// built from the published system designs and the shared hardware
// calibration — nothing here reads the paper's result numbers.
package baselines

import (
	"math"

	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/sched"
)

// Memory-model constants. Each captures one documented framework
// behaviour; Fig. 13's capacity points emerge from these, they are not
// per-figure tuned.
const (
	// fragFactor is allocator fragmentation + framework temporaries
	// applied to resident model states.
	fragFactor = 1.1
	// adamTransientBytesPerParam is the transient peak of an unfused
	// GPU-resident mixed-precision Adam step: PyTorch materializes the
	// bias-corrected m̂ and v̂ (2 × fp32) out-of-place.
	adamTransientBytesPerParam = 8.0
	// gradTransientBytesPerParam covers ZeRO-family gradient machinery:
	// contiguous-gradient buffers and in-flight reduce/offload buckets
	// coexisting with the fp16 gradients.
	gradTransientBytesPerParam = 1.5
	// tpOverheadFactor covers Megatron's TP communication buffers and
	// the embedding/norm duplication TP cannot shard.
	tpOverheadFactor = 1.35
	// shardTransientBytesPerParam is the per-shard step/collective
	// transient for sharded systems (Megatron, ZeRO-3): fused fp32
	// update temporaries.
	shardTransientBytesPerParam = 4.0
	// zero3Factor covers ZeRO-3's per-layer all-gather working set and
	// prefetch buffers on top of the sharded 16Ψ/N states.
	zero3Factor = 1.25
	// exposedCollectiveFrac is the fraction of data-parallel collective
	// time not hidden behind compute (bucketed overlap hides the rest).
	exposedCollectiveFrac = 0.3
)

// gpuOnlyFits is the shared capacity check for systems whose model states
// live entirely in HBM. statesPerParam is the per-rank resident bytes per
// parameter; transient adds step-transient bytes per parameter.
func gpuOnlyFits(chip hw.Chip, m model.Config, statesPerParam, transientPerParam float64, shard int64, micro, seq int, ckpt bool) bool {
	resident := statesPerParam*float64(shard)*fragFactor + transientPerParam*float64(shard)
	act := float64(m.ActivationBytes(micro, seq, ckpt))
	return int64(resident+act)+hw.GPUMemoryOverheadBytes <= chip.GPU.MemBytes
}

// gpuComputeIter returns iteration time for a GPU-resident schedule:
// compute (with micro-batch efficiency), the optimizer step on the GPU,
// and exposed collective time.
func gpuComputeIter(chip hw.Chip, m model.Config, e sched.Execution, seq int, optParams int64, collective float64) float64 {
	fwd, bwd := sched.ComputeTimes(chip, m, e.MicroBatch, seq, e.Checkpoint)
	eff := sched.EffBatchEfficiency(e.MicroBatch, seq)
	compute := float64(e.GradAccum) * (fwd + bwd) / eff
	return compute + hw.AdamStepTime(chip, hw.AdamGPU, optParams) + collective
}

// hbmOOM is the out-of-memory reason of the systems that keep every model
// state in HBM.
const hbmOOM = "model states + activations exceed HBM"

// zeroCollectives is one iteration's ZeRO collective time: the gradient
// reduce-scatter plus allGathers parameter all-gathers — 1 under ZeRO-2
// (the updated parameters), 2 under ZeRO-3 (every layer, in forward and
// again in backward).
func zeroCollectives(w sched.Workload, allGathers float64) float64 {
	n, bytes := w.Chips(), 2*w.Model.Params()
	link := w.Cluster.DataParallelLink(n)
	return allGathers*hw.CollectiveTime(hw.AllGather, n, bytes, link) + hw.CollectiveTime(hw.ReduceScatter, n, bytes, link)
}

// ---- PyTorch DDP ----

// DDP is standard data parallelism: full replica per GPU, all-reduce of
// gradients, GPU optimizer.
type DDP struct{}

func (DDP) Name() string { return "PyTorch DDP" }

func (d DDP) Plan(w sched.Workload) sched.Result {
	chip := w.Cluster.Node.Chip
	p := w.Model.Params()
	fits := func(micro int, ckpt bool) bool {
		return gpuOnlyFits(chip, w.Model, 16, adamTransientBytesPerParam, p, micro, w.Seq, ckpt)
	}
	// All-reduce of fp16 gradients, mostly overlapped.
	n := w.Chips()
	coll := exposedCollectiveFrac * hw.CollectiveTime(hw.AllReduce, n, 2*p, w.Cluster.DataParallelLink(n))
	timeOf := func(e sched.Execution) float64 { return gpuComputeIter(chip, w.Model, e, w.Seq, p, coll) }
	return sched.AnalyticPlan(d.Name(), w, hbmOOM, fits, timeOf)
}

// ---- Megatron (tensor parallelism) ----

// Megatron shards every layer across all chips; activations are
// all-reduced twice per layer per pass.
type Megatron struct{}

func (Megatron) Name() string { return "Megatron" }

// Plan searches TP×DP decompositions ("we use a MP degree that gives the
// best performance", §5.1): tensor parallelism inside the group of tp
// ranks (preferring the intra-node fabric), data parallelism across the
// n/tp groups. Each TP group processes the data-parallel batch share
// jointly; activations shard with the model.
func (mg Megatron) Plan(w sched.Workload) sched.Result {
	res := sched.Result{System: mg.Name(), Workload: w}
	chip := w.Cluster.Node.Chip
	n := w.Chips()
	p := w.Model.Params()

	type cand struct {
		exec sched.Execution
		tp   int
		t    float64
	}
	var best *cand
	for tp := 1; tp <= n; tp *= 2 {
		if n%tp != 0 {
			continue
		}
		dp := n / tp
		shard := p / int64(tp)
		groupBatch := w.GlobalBatch / dp
		if groupBatch < 1 {
			groupBatch = 1
		}
		tpLink := w.Cluster.DataParallelLink(tp) // intra-node when tp fits a node
		dpLink := w.Cluster.DataParallelLink(n)

		fits := func(micro int, ckpt bool) bool {
			statesPerParam := 16.0 * tpOverheadFactor
			transient := shardTransientBytesPerParam
			if tp == 1 {
				statesPerParam, transient = 16, adamTransientBytesPerParam
			}
			resident := statesPerParam*float64(shard)*fragFactor + transient*float64(shard)
			act := float64(w.Model.ActivationBytes(micro, w.Seq, ckpt)) / float64(tp)
			return int64(resident+act)+hw.GPUMemoryOverheadBytes <= chip.GPU.MemBytes
		}
		timeOf := func(e sched.Execution) float64 {
			// TP shrinks per-rank GEMMs; effective hidden drops
			// with √tp, lowering achievable efficiency.
			effHidden := int(float64(w.Model.Hidden) / math.Sqrt(float64(tp)))
			ach := hw.AchievableGPUFLOPS(chip, effHidden, w.Seq)
			flops := w.Model.IterFLOPs(e.MicroBatch, w.Seq) / float64(tp)
			if e.Checkpoint {
				flops *= 4.0 / 3.0
			}
			compute := float64(e.GradAccum) * flops / ach / sched.EffBatchEfficiency(e.MicroBatch, w.Seq)
			var comm float64
			if tp > 1 {
				// 4 activation all-reduces per layer per
				// micro-step (2 fwd + 2 bwd), fully exposed.
				actBytes := int64(2 * e.MicroBatch * w.Seq * w.Model.Hidden)
				per := hw.CollectiveTime(hw.AllReduce, tp, actBytes, tpLink)
				comm += float64(e.GradAccum) * 4 * float64(w.Model.Layers) * per
			}
			if dp > 1 {
				comm += exposedCollectiveFrac * hw.CollectiveTime(hw.AllReduce, dp, 2*shard, dpLink)
			}
			return compute + comm + hw.AdamStepTime(chip, hw.AdamGPU, shard)
		}
		exec, ok := sched.ChooseExecution(groupBatch, fits, timeOf)
		if !ok {
			continue
		}
		t := timeOf(exec)
		if best == nil || t < best.t {
			best = &cand{exec: exec, tp: tp, t: t}
		}
	}
	if best == nil {
		res.OOM = "no TP degree fits (shards + activations exceed HBM)"
		return res
	}
	res.Fits = true
	res.Exec = best.exec
	res.IterTime = best.t
	res.GPUIdleFrac = 0 // TP stalls are comm-bound, not idle-timed here
	res.Finalize(chip)
	return res
}

// ---- ZeRO-2 ----

// ZeRO2 shards gradients and optimizer states across ranks but keeps a
// full fp16 parameter replica per GPU.
type ZeRO2 struct{}

func (ZeRO2) Name() string { return "ZeRO-2" }

func (z ZeRO2) Plan(w sched.Workload) sched.Result {
	chip := w.Cluster.Node.Chip
	n := int64(w.Chips())
	p := w.Model.Params()
	fits := func(micro int, ckpt bool) bool {
		resident := (2*float64(p) + 14*float64(p)/float64(n)) * fragFactor
		resident += gradTransientBytesPerParam * float64(p)
		if n == 1 {
			resident += adamTransientBytesPerParam * float64(p)
		}
		act := float64(w.Model.ActivationBytes(micro, w.Seq, ckpt))
		return int64(resident+act)+hw.GPUMemoryOverheadBytes <= chip.GPU.MemBytes
	}
	coll := exposedCollectiveFrac * zeroCollectives(w, 1)
	timeOf := func(e sched.Execution) float64 { return gpuComputeIter(chip, w.Model, e, w.Seq, p/n, coll) }
	return sched.AnalyticPlan(z.Name(), w, hbmOOM, fits, timeOf)
}

// ---- ZeRO-3 ----

// ZeRO3 additionally shards parameters; layers are all-gathered on the
// fly in both passes.
type ZeRO3 struct{}

func (ZeRO3) Name() string { return "ZeRO-3" }

func (z ZeRO3) Plan(w sched.Workload) sched.Result {
	chip := w.Cluster.Node.Chip
	n := w.Chips()
	p := w.Model.Params()
	shard := p / int64(n)
	fits := func(micro int, ckpt bool) bool {
		if n == 1 {
			return gpuOnlyFits(chip, w.Model, 16, adamTransientBytesPerParam, shard, micro, w.Seq, ckpt)
		}
		return gpuOnlyFits(chip, w.Model, 16*zero3Factor, shardTransientBytesPerParam, shard, micro, w.Seq, ckpt)
	}
	// Prefetch overlaps most of the collectives.
	coll := exposedCollectiveFrac * zeroCollectives(w, 2)
	timeOf := func(e sched.Execution) float64 { return gpuComputeIter(chip, w.Model, e, w.Seq, shard, coll) }
	return sched.AnalyticPlan(z.Name(), w, hbmOOM, fits, timeOf)
}

// ---- All ----

// All returns every baseline in the paper's comparison order.
func All() []sched.System {
	return []sched.System{DDP{}, Megatron{}, ZeRO2{}, ZeRO3{}, ZeROOffload, ZeROInfinity, FSDPOffload}
}
