package hw

import "math"

// SuperchipSpec bundles the hardware model a virtual-clock superchip
// executor needs to time one heterogeneous optimizer step: the chip
// (GPU + CPU joined by the C2C link) and the NVMe array backing the
// optional third tier. internal/place consumes it to derive adaptive
// GPU/CPU bucket placements, and the real STV engine's placement
// executor charges its virtual clocks with these rates.
type SuperchipSpec struct {
	// Chip is the Superchip (GPU, CPU, and the host link between them).
	Chip Chip
	// NVMe is the flash array backing NVMe-tier buckets.
	NVMe NVMeSpec
}

// DefaultSuperchip is the paper's evaluation platform: a GH200 and the
// node NVMe array.
func DefaultSuperchip() SuperchipSpec {
	return SuperchipSpec{Chip: GH200(), NVMe: NodeNVMe()}
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
// plus the bandwidth-bound kernel at GraceAdam's rate, the paper's SVE
// port, §4.6).
func (s SuperchipSpec) CPUAdamTime(elems int64) float64 {
	return CPUDispatchPerBucketS + AdamStepTime(s.Chip, AdamGrace, elems)
}

// GPUAdamTime is one GPU-resident bucket's fused optimizer step (kernel
// launch plus the HBM-bound kernel), run on the GPU stream after
// backward.
func (s SuperchipSpec) GPUAdamTime(elems int64) float64 {
	return KernelLaunchS + AdamStepTime(s.Chip, AdamGPU, elems)
}

// superchipNVMeBytesPerElem is the flash bytes charged per parameter for
// one fetch or flush: the 12 B (fp32 master + Adam m + v) of the one slot
// a stv.MLPStore fetch or flush moves (its 8-byte step header aside).
const superchipNVMeBytesPerElem = 12

// NVMeFetchTime is the flash read bringing one NVMe-tier bucket's
// optimizer state into the resident window.
func (s SuperchipSpec) NVMeFetchTime(elems int64) float64 {
	return s.NVMe.ReadTime(superchipNVMeBytesPerElem * elems)
}

// NVMeFlushTime is the write-behind flush of one NVMe-tier bucket's
// updated optimizer state.
func (s SuperchipSpec) NVMeFlushTime(elems int64) float64 {
	return s.NVMe.WriteTime(superchipNVMeBytesPerElem * elems)
}
