package hw

import "math"

// SuperchipSpec bundles the hardware model a virtual-clock superchip
// executor needs to time one heterogeneous optimizer step: the chip
// (GPU + CPU joined by the C2C link), the CPU Adam implementation (the
// paper's GraceAdam vs the x86 CPU-Adam port, §4.6), and the NVMe array
// backing the optional third tier. internal/place consumes it to derive
// adaptive GPU/CPU bucket placements, and the real STV engine's placement
// executor charges its virtual clocks with these rates.
type SuperchipSpec struct {
	// Chip is the Superchip (GPU, CPU, and the host link between them).
	Chip Chip
	// CPUImpl is the CPU optimizer kernel rate model: AdamGrace (the
	// paper's SVE kernel) or AdamCPU (the x86-blocked port).
	CPUImpl AdamImpl
	// NVMe is the flash array backing NVMe-tier buckets.
	NVMe NVMeSpec
	// IOPaths, when non-empty, replaces the single-lane NVMe model with
	// independently scheduled flash paths (MLP-Offload): virtual-clock
	// executors dispatch fetches and write-behind flushes to the
	// least-loaded path and account per-path occupancy. Empty keeps the
	// legacy single-lane model bit-identical.
	IOPaths IOPaths
}

// DefaultSuperchip is the paper's evaluation platform: a GH200 with
// GraceAdam and the node NVMe array.
func DefaultSuperchip() SuperchipSpec {
	return SuperchipSpec{Chip: GH200(), CPUImpl: AdamGrace, NVMe: NodeNVMe()}
}

// OrDefault returns the spec with unset fields filled in: the zero value
// becomes DefaultSuperchip, and a spec carrying only a Chip gets the
// GraceAdam rate and the node NVMe array. AdamNaive (CPUImpl's zero
// value) is the un-ported PyTorch baseline, not a superchip optimizer
// port, so it is treated as "unset" rather than silently modeling the
// slowest kernel.
func (s SuperchipSpec) OrDefault() SuperchipSpec {
	if s.Chip.GPU.PeakFLOPS == 0 {
		return DefaultSuperchip()
	}
	if s.CPUImpl == AdamNaive {
		s.CPUImpl = AdamGrace
	}
	if s.NVMe.ReadBW == 0 {
		s.NVMe = NodeNVMe()
	}
	return s
}

// BackwardTime models the GPU backward pass producing the step's
// gradients: 4 FLOPs per token per parameter (backward is twice the
// 2·tokens·params forward) at the transformer-achievable GPU rate.
func (s SuperchipSpec) BackwardTime(params int64, tokens, hidden, seq int) float64 {
	if tokens <= 0 || params <= 0 {
		return 0
	}
	return 4 * float64(tokens) * float64(params) / AchievableGPUFLOPS(s.Chip, hidden, seq)
}

// GradD2HFusedTime is the device-to-host gradient hop — the pinned move of
// one bucket's fp32 gradients over the C2C link — with the GPU-side
// fp16→fp32 cast fused into the copy (§4.5's Cast_gpu+Move_fp32 path run
// as one streaming kernel): the conversion overlaps the transfer, so the
// hop costs the slower of the two rates rather than their sum.
func (s SuperchipSpec) GradD2HFusedTime(elems int64) float64 {
	return math.Max(CastTime(s.Chip, true, elems),
		s.Chip.Link.TransferTime(4*elems, DeviceToHost, Pinned))
}

// WeightH2DFusedTime is the host-to-device return of one bucket's updated
// fp16 weights with the CPU-side fp32→fp16 re-cast fused into the copy:
// the optimizer's output streams through the conversion into the pinned
// transfer, so the hop costs the slower of the cast and the move.
func (s SuperchipSpec) WeightH2DFusedTime(elems int64) float64 {
	return math.Max(CastTime(s.Chip, false, elems),
		s.Chip.Link.TransferTime(2*elems, HostToDevice, Pinned))
}

// CPUAdamTime is one bucket's fused CPU optimizer step (dispatch tax
// plus the bandwidth-bound kernel at the configured implementation's
// rate).
func (s SuperchipSpec) CPUAdamTime(elems int64) float64 {
	return CPUDispatchPerBucketS + AdamStepTime(s.Chip, s.CPUImpl, elems)
}

// GPUAdamTime is one GPU-resident bucket's fused optimizer step (kernel
// launch plus the HBM-bound kernel), run on the GPU stream after
// backward.
func (s SuperchipSpec) GPUAdamTime(elems int64) float64 {
	return KernelLaunchS + AdamStepTime(s.Chip, AdamGPU, elems)
}

// superchipNVMeBytesPerElem is the flash footprint of one parameter's
// optimizer state in the windowed store (fp32 master + Adam m + v and
// their snapshot reservation — stv.NVMeStore's record layout).
const superchipNVMeBytesPerElem = 24

// NVMeFlushTime is the write-behind flush of one NVMe-tier bucket's
// updated optimizer state.
func (s SuperchipSpec) NVMeFlushTime(elems int64) float64 {
	return s.NVMe.WriteTime(superchipNVMeBytesPerElem * elems)
}

// NVMePathCount is the number of independently scheduled flash paths the
// spec models (1 for the legacy single-lane model).
func (s SuperchipSpec) NVMePathCount() int {
	if n := len(s.IOPaths); n > 0 {
		return n
	}
	return 1
}

// PathNVMe returns the transfer model of flash path i: the configured
// IOPaths entry, or the single-lane NVMe spec when none are set.
func (s SuperchipSpec) PathNVMe(i int) NVMeSpec {
	if i >= 0 && i < len(s.IOPaths) {
		return s.IOPaths[i]
	}
	return s.NVMe
}

// NVMePathFetchTime is the flash read bringing one NVMe-tier bucket's
// optimizer state into the resident window over flash path i's lane.
func (s SuperchipSpec) NVMePathFetchTime(i int, elems int64) float64 {
	return s.PathNVMe(i).ReadTime(superchipNVMeBytesPerElem * elems)
}

// NVMePathFlushTime is NVMeFlushTime on flash path i's lane.
func (s SuperchipSpec) NVMePathFlushTime(i int, elems int64) float64 {
	return s.PathNVMe(i).WriteTime(superchipNVMeBytesPerElem * elems)
}
