package hw

// Calibration constants. Each constant models one physical mechanism and is
// set once, here, with its justification. Figures are regenerated from
// these shared constants; no experiment overrides them.
const (
	// GEMMEfficiencyMax is the fraction of peak tensor-core FLOPS a large
	// transformer layer achieves end-to-end (attention softmax, layernorm
	// and other non-GEMM work included). The paper's own best observed
	// throughput is ~239 TFLOPS on a 990 TFLOPS part at hidden 3072
	// (Table 2) and ~55% MFU at hidden 5120 with huge sequence lengths
	// (Fig. 12), so achievable efficiency grows with arithmetic
	// intensity; 0.62 is the asymptote of that curve.
	GEMMEfficiencyMax = 0.62

	// GEMMEfficiencyHalfHidden is the hidden size at which a transformer
	// reaches half of GEMMEfficiencyMax. Calibrated so hidden=3072 lands
	// near the paper's 239 TFLOPS (≈24% of peak) and hidden=8192 near
	// 40%+ of peak.
	GEMMEfficiencyHalfHidden = 4800.0

	// SeqEfficiencyBoost: long sequences raise GEMM arithmetic intensity;
	// efficiency multiplies by seq/(seq+SeqEfficiencyHalf) normalized to
	// 1.0 at seq 1024 (the single-chip evaluation default).
	SeqEfficiencyHalf = 512.0

	// CPUAdamBytesPerParam is DRAM traffic per parameter for a fused
	// mixed-precision Adam step on the CPU: read fp32 master param,
	// momentum, variance, fp32 grad (16 B), write back param, momentum,
	// variance (12 B), write fp16 copy (2 B), read for cast (4 B) ≈ 34 B.
	// The optimizer is memory-bandwidth-bound on Grace (§4.6).
	CPUAdamBytesPerParam = 34.0

	// Optimizer-efficiency fractions: fraction of CPU memory bandwidth
	// each Adam implementation sustains. Ratios are calibrated to the
	// paper's Table 3 (PT-CPU : CPU-Adam : GraceAdam = 3.5 : 1.27 : 1 at
	// 1B params) and to our own measured Go kernels (optim package).
	GraceAdamEfficiency  = 0.80 // SVE-style unrolled+fused, near-BW
	CPUAdamEfficiency    = 0.63 // x86-blocked design ported to ARM
	NaiveAdamEfficiency  = 0.23 // PyTorch-native scalar loop
	GPUAdamEfficiencyHBM = 0.75 // fused GPU Adam, HBM-bound

	// UnpinnedBWFraction is the fraction of link peak sustained when a
	// transfer bounces through a pageable (unpinned) host buffer, as the
	// cast-on-CPU path does (§4.5). Measured GH200 pageable-copy rates
	// are roughly a third of pinned DMA.
	UnpinnedBWFraction = 0.35

	// UnpinnedSetupS is the extra allocation+fault latency per unpinned
	// staging buffer.
	UnpinnedSetupS = 40e-6

	// CastBytesPerElemCPU: CPU-side fp16<->fp32 conversion is memory
	// bound; traffic = read 2/4 B + write 4/2 B = 6 B per element.
	CastBytesPerElemCPU = 6.0

	// CastCPUEfficiency is the fraction of CPU DRAM bandwidth the
	// vectorized conversion kernel sustains.
	CastCPUEfficiency = 0.70

	// CastGPUEfficiency: same kernel on the GPU runs at HBM rate.
	CastGPUEfficiency = 0.85

	// KernelLaunchS is the per-kernel launch/driver overhead. It is what
	// makes per-layer synchronous designs (FSDP-Offload) slow even on a
	// fast link.
	KernelLaunchS = 8e-6

	// CPUDispatchPerBucketS is the host-side dispatch cost per offloaded
	// bucket (queueing, framework dispatch, thread wake-up) paid before
	// the fused optimizer kernel runs. With PCIe-era small buckets this
	// per-bucket tax accumulates into a visible CPU-phase extension —
	// one of the two effects bucketization repartitioning removes
	// (§4.3).
	CPUDispatchPerBucketS = 0.4e-3

	// FSDPSyncPerLayerS is the host-side blocking synchronization FSDP's
	// CPU-offload path performs per layer per pass (cudaStreamSynchronize
	// + Python dispatch). Empirically dominated by host latency, not
	// bandwidth; this is why FSDP-Offload stays below 15 TFLOPS in
	// Fig. 10 regardless of link speed.
	FSDPSyncPerLayerS = 4e-3

	// ZeROInfinityBucketBytes is ZeRO-Infinity's default swap block
	// (DeepSpeed's aio_block_size default of 1 MiB). Its PCIe-era tuning
	// uses small buffers, which on C2C stay latency-bound — "bandwidth
	// can drop to as low as 50GB/s with small tensor sizes" (§5.2).
	ZeROInfinityBucketBytes = 1 * MiB

	// ZeROOffloadBucketBytes is DeepSpeed ZeRO-Offload's default CPU
	// offload bucket (tuned for PCIe).
	ZeROOffloadBucketBytes = 8 * MiB

	// SuperOffloadBucketBytes is the paper's chosen bucket: the C2C
	// saturation knee (§4.3, Fig. 7).
	SuperOffloadBucketBytes = 64 * MiB

	// GPUMemoryOverheadBytes reserves HBM for CUDA context, workspace,
	// fragmentation and framework buffers.
	GPUMemoryOverheadBytes = 6 * GiB

	// CPUMemoryOverheadBytes reserves DDR for the OS, framework, and
	// dataloader.
	CPUMemoryOverheadBytes = 16 * GiB

	// NUMAMisbindPenalty multiplies host-link latency and divides
	// bandwidth when a process is bound to the wrong Superchip's cores so
	// traffic crosses the inter-socket fabric (§4.7 "NUMA binding").
	NUMAMisbindBWFraction = 0.15
	NUMAMisbindExtraLatS  = 60e-6

	// NUMAMisbindCPUBWFraction is the fraction of local DDR bandwidth a
	// misbound process sees for its own memory traffic (every optimizer
	// access crosses the socket fabric), which is what makes misbinding
	// hurt even when transfers stay overlapped.
	NUMAMisbindCPUBWFraction = 0.4
)

// GEMMEfficiency returns the achievable fraction of GPU peak FLOPS for a
// transformer with the given hidden size and sequence length.
func GEMMEfficiency(hidden int, seq int) float64 {
	h := float64(hidden)
	eff := GEMMEfficiencyMax * h / (h + GEMMEfficiencyHalfHidden)
	s := float64(seq)
	norm := 1024.0 / (1024.0 + SeqEfficiencyHalf)
	eff *= (s / (s + SeqEfficiencyHalf)) / norm
	if eff > GEMMEfficiencyMax {
		eff = GEMMEfficiencyMax
	}
	return eff
}

// AchievableGPUFLOPS is the end-to-end GPU throughput for a transformer
// workload on the given chip.
func AchievableGPUFLOPS(c Chip, hidden, seq int) float64 {
	return c.GPU.PeakFLOPS * GEMMEfficiency(hidden, seq)
}

// AdamImpl selects one of the three optimizer implementations compared in
// Table 3.
type AdamImpl int

const (
	AdamNaive AdamImpl = iota // PyTorch-native CPU Adam
	AdamCPU                   // DeepSpeed CPU-Adam (x86-blocked) on ARM
	AdamGrace                 // the paper's GraceAdam (SVE)
	AdamGPU                   // fused GPU Adam (for GPU-resident buckets)
)

func (a AdamImpl) String() string {
	switch a {
	case AdamNaive:
		return "PT-CPU"
	case AdamCPU:
		return "CPU-Adam"
	case AdamGrace:
		return "GraceAdam"
	case AdamGPU:
		return "GPU-Adam"
	}
	return "unknown"
}

// AdamStepTime returns the optimizer-step wall time for nParams parameters
// on chip c with the chosen implementation. CPU implementations are
// memory-bandwidth bound (§4.6); the GPU implementation is HBM bound.
func AdamStepTime(c Chip, impl AdamImpl, nParams int64) float64 {
	traffic := float64(nParams) * CPUAdamBytesPerParam
	switch impl {
	case AdamNaive:
		return traffic / (c.CPU.MemBW * NaiveAdamEfficiency)
	case AdamCPU:
		return traffic / (c.CPU.MemBW * CPUAdamEfficiency)
	case AdamGrace:
		return traffic / (c.CPU.MemBW * GraceAdamEfficiency)
	case AdamGPU:
		return traffic / (c.GPU.MemBW * GPUAdamEfficiencyHBM)
	}
	return 0
}

// CPUCastFused reports whether the chip's CPU optimizer consumes fp16
// inputs in-register at no extra memory-pass cost. DeepSpeed's AVX CPU-Adam
// does this on x86; the ARM port the paper starts from does not, paying a
// separate conversion pass through an unpinned staging buffer (§4.5) —
// which is why the casting trade-off flips on Superchips.
func CPUCastFused(c Chip) bool { return !c.CPU.SVE }

// CastTime returns the time to convert n elements between fp16 and fp32 on
// the CPU or GPU side of chip c (§4.5, Fig. 9).
func CastTime(c Chip, onGPU bool, nElems int64) float64 {
	traffic := float64(nElems) * CastBytesPerElemCPU
	if onGPU {
		return KernelLaunchS + traffic/(c.GPU.MemBW*CastGPUEfficiency)
	}
	return traffic / (c.CPU.MemBW * CastCPUEfficiency)
}
