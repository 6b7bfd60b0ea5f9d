package baselines

import (
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/sched"
)

// offloadSystem is one offloading baseline. All four run the bucketized
// schedule of sched.Build on the synchronize-then-execute barrier with
// the PCIe-era cast-on-CPU transfer format, and differ only in the data
// below.
type offloadSystem struct {
	name string
	oom  string // Result.OOM when no execution fits
	// bucketBytes is the fp16 payload of one transfer bucket; 0 makes
	// every transformer layer one bucket (FSDP's wrapping unit).
	bucketBytes int64
	// knobs are the schedule flags of the sched.OffloadPlan; Plan fills
	// in the chip, model, execution and bucket partition.
	knobs sched.OffloadPlan
	fits  func(w sched.Workload, micro int, ckpt bool) bool
	// allGathers selects the zeroCollectives term (1: ZeRO-2 layout, 2:
	// ZeRO-3). The synchronous schedule serializes it with the offload
	// phase — nothing hides it (Fig. 3).
	allGathers float64
	// swap is the exposed flash time per step for a shard held on NVMe;
	// nil when the states live in DRAM.
	swap func(shardParams int64) float64
}

func (s offloadSystem) Name() string { return s.name }

func (s offloadSystem) Plan(w sched.Workload) sched.Result {
	chip := w.Cluster.Node.Chip
	shard := w.Model.Params() / int64(w.Chips())
	nb := w.Model.Layers
	if s.bucketBytes > 0 {
		nb = int((2*shard + s.bucketBytes - 1) / s.bucketBytes)
	}
	nb = max(nb, 1)
	var swap float64
	if s.swap != nil {
		swap = s.swap(shard)
	}
	coll := zeroCollectives(w, s.allGathers)
	timeOf := func(e sched.Execution) float64 {
		p := s.knobs
		p.Chip, p.Link, p.Model, p.Exec, p.Seq = chip, chip.Link, w.Model, e, w.Seq
		p.NBuckets, p.BucketParams = nb, shard/int64(nb)
		_, st, err := sched.Build(p)
		if err != nil {
			return 0
		}
		return st.IterTime + swap + coll
	}
	fits := func(micro int, ckpt bool) bool { return s.fits(w, micro, ckpt) }
	return sched.AnalyticPlan(s.name, w, s.oom, fits, timeOf)
}

// ZeROOffload is DeepSpeed's CPU offloading on top of ZeRO-2 (ATC'21):
// fp16 weights and gradients stay on the GPU, optimizer states and the
// Adam step move to the CPU, with PCIe-tuned buckets.
var ZeROOffload = offloadSystem{
	name: "ZeRO-Offload", oom: "fp16 replica + gradients exceed HBM",
	bucketBytes: hw.ZeROOffloadBucketBytes,
	knobs:       sched.OffloadPlan{CPUImpl: hw.AdamCPU},
	fits:        fitsZeROOffload,
	allGathers:  1,
}

// ZeROInfinity extends ZeRO-3 with CPU offload of parameters and optimizer
// states (SC'21), streaming weights per small swap buffer. Its PCIe-tuned
// buffer sizes leave the C2C link latency-bound (§5.2).
var ZeROInfinity = offloadSystem{
	name: "ZeRO-Infinity", oom: "CPU states exceed DDR (or activations exceed HBM)",
	bucketBytes: hw.ZeROInfinityBucketBytes,
	knobs:       sched.OffloadPlan{CPUImpl: hw.AdamCPU, WeightFlow: true, UnpinnedWeights: true},
	fits:        fitsCPUStates,
	allGathers:  2,
}

// FSDPOffload is PyTorch FSDP with CPUOffload(offload_params=True)
// (VLDB'23): parameters, gradients and optimizer states live on the CPU;
// every layer's weights are copied in synchronously per pass through
// pageable memory, gradients are copied back the same way, and the
// optimizer is the native (unfused) CPU Adam.
var FSDPOffload = offloadSystem{
	name: "FSDP-Offload", oom: ZeROInfinity.oom,
	knobs: sched.OffloadPlan{CPUImpl: hw.AdamNaive, WeightFlow: true,
		PageableTransfers: true, PerLayerSync: hw.FSDPSyncPerLayerS},
	fits:       fitsCPUStates,
	allGathers: 2,
}

// ZeROInfinityNVMe is ZeRO-Infinity with its NVMe tier enabled — the full
// design of the original paper, which the SuperOffload evaluation turns
// off for fair comparison (§5.1 "we only enable its CPU offloading"). It
// extends trainable model scale far past DDR at the cost of swapping
// optimizer states through the NVMe array every step.
var ZeROInfinityNVMe = offloadSystem{
	name: "ZeRO-Infinity+NVMe", oom: "NVMe/DRAM staging exceeded",
	bucketBytes: ZeROInfinity.bucketBytes,
	knobs:       ZeROInfinity.knobs,
	fits:        fitsNVMeStates,
	allGathers:  2,
	// Optimizer states stream through NVMe each step, and the fp16
	// weights are re-read from flash for each pass; the aio pipeline
	// overlaps poorly with the synchronous schedule, so both are exposed.
	swap: func(shardParams int64) float64 {
		return hw.NodeNVMe().StepSwapTime(shardParams, model.BytesFP16Param, 2)
	},
}

// fitsZeROOffload: single GPU holds full fp16 params+grads (4Ψ); with
// ZeRO-2 sharding across n ranks the gradients shrink to 2Ψ/n but the
// reduce/offload transient remains; the CPU holds 16Ψ/n.
func fitsZeROOffload(w sched.Workload, micro int, ckpt bool) bool {
	chip := w.Cluster.Node.Chip
	n := int64(w.Chips())
	p := w.Model.Params()
	var resident float64
	if n == 1 {
		// Full fp16 params + full fp16 grads stay on the GPU.
		resident = 4 * float64(p) * fragFactor
	} else {
		// ZeRO-2 shards gradients but each rank keeps the full fp16
		// parameter replica (§5.4).
		resident = (2*float64(p) + 2*float64(p)/float64(n)) * fragFactor
	}
	resident += gradTransientBytesPerParam * float64(p)
	act := float64(w.Model.ActivationBytes(micro, w.Seq, ckpt))
	if int64(resident+act)+hw.GPUMemoryOverheadBytes > chip.GPU.MemBytes {
		return false
	}
	cpu := 16*p/n + hw.CPUMemoryOverheadBytes
	return cpu <= chip.CPU.MemBytes
}

// streamedFitsHBM is the HBM check of the weight-streaming systems: swap
// buffers plus the live layer (2 GiB) next to the activations.
func streamedFitsHBM(w sched.Workload, micro int, ckpt bool) bool {
	const workingBytes = 2 << 30
	act := w.Model.ActivationBytes(micro, w.Seq, ckpt)
	return workingBytes+act+hw.GPUMemoryOverheadBytes <= w.Cluster.Node.Chip.GPU.MemBytes
}

// fitsCPUStates: every model state of the shard lives in DDR.
func fitsCPUStates(w sched.Workload, micro int, ckpt bool) bool {
	shard := w.Model.Params() / int64(w.Chips())
	return streamedFitsHBM(w, micro, ckpt) &&
		shard*model.BytesCPUStatesFull+hw.CPUMemoryOverheadBytes <= w.Cluster.Node.Chip.CPU.MemBytes
}

// fitsNVMeStates: DRAM holds only the swap pipeline's staging buffers;
// model states (fp16 params, fp32 gradients, optimizer states) all live on
// the NVMe tier, which is what "breaking the GPU memory wall" buys.
func fitsNVMeStates(w sched.Workload, micro int, ckpt bool) bool {
	const dramStagingBytes = 16 << 30
	shard := w.Model.Params() / int64(w.Chips())
	return streamedFitsHBM(w, micro, ckpt) &&
		dramStagingBytes+hw.CPUMemoryOverheadBytes <= w.Cluster.Node.Chip.CPU.MemBytes &&
		shard*model.BytesCPUStatesFull <= hw.NodeNVMe().Capacity
}
