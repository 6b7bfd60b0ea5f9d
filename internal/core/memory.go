package core

import (
	"fmt"

	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/sched"
)

// Policy is the weight residency decision of §4.2.
type Policy int

const (
	// WeightStationary keeps fp16 weights resident on the GPU;
	// optimizer states live on the CPU (ZeRO-Offload's layout).
	WeightStationary Policy = iota
	// WeightFlow streams fp16 weights from CPU per bucket during both
	// passes, freeing GPU memory for activations (ZeRO-Infinity's
	// layout, profitable on C2C at sufficient batch×seq).
	WeightFlow
)

func (p Policy) String() string {
	if p == WeightStationary {
		return "weight-stationary"
	}
	return "weight-flow"
}

// allocFragmentation covers allocator fragmentation and framework
// temporaries on top of steady-state tensors.
const allocFragmentation = 1.1

// flowWorkingBuckets is the number of in-flight weight buckets the
// weight-flow pipeline keeps resident (double buffering each direction).
const flowWorkingBuckets = 4

// GPUMemory returns the HBM bytes SuperOffload needs on one Superchip
// under the given policy and execution, for the per-rank parameter shard
// shardParams (equals full params on a single chip; params/N under
// ZeRO-DP).
func GPUMemory(m model.Config, shardParams int64, pol Policy, exec sched.Execution, seq int, bucketParams int64, gpuBuckets int) int64 {
	var states float64
	switch pol {
	case WeightStationary:
		// fp16 weights resident; per-bucket grad staging only.
		states = 2 * float64(shardParams)
	case WeightFlow:
		states = float64(flowWorkingBuckets) * 2 * float64(bucketParams)
	}
	// GPU-retained buckets keep fp32 master+moments+grad on HBM (§4.3).
	states += float64(gpuBuckets) * float64(bucketParams) * (model.BytesOptimStates + model.BytesFP32Grad)
	// Transfer staging: a few buckets of fp32 in flight each way.
	states += 4 * 4 * float64(bucketParams)
	act := float64(m.ActivationBytes(exec.MicroBatch, seq, exec.Checkpoint))
	return int64(states*allocFragmentation+act) + hw.GPUMemoryOverheadBytes
}

// CPUMemory returns the DDR bytes for the CPU-resident states of the
// shard: fp32 master+moments+grad and the fp16 copy for cpu-offloaded
// buckets (18 bytes/param, §2.2 extended with the gradient and fp16
// staging).
func CPUMemory(shardParams int64, bucketParams int64, gpuBuckets int) int64 {
	cpuParams := shardParams - int64(gpuBuckets)*bucketParams
	if cpuParams < 0 {
		cpuParams = 0
	}
	return cpuParams*model.BytesCPUStatesFull + hw.CPUMemoryOverheadBytes
}

// ActCoPlan sizes the activation tier against the HBM left over after
// the optimizer placement claims its share — the two offload subsystems
// planned under one budget. It returns the largest resident-layer window
// W (hw.ActWindow(0, layers) ≤ W ≤ layers) such that the plan's
// non-activation GPU demand plus W/L of the uncheckpointed per-layer
// activation footprint (the logit activations always stay resident) fits
// the chip, plus whether that window spills (W < layers). When even the
// floor does not fit, it reports the floor with spill — the caller's
// Fits check governs feasibility, typically by re-enabling activation
// checkpointing.
func ActCoPlan(chip hw.Chip, m model.Config, shardParams int64, pol Policy, exec sched.Execution, seq int, bucketParams int64, gpuBuckets int) (int, bool) {
	if m.Layers <= 0 {
		return 0, false
	}
	noAct := exec
	noAct.MicroBatch = 0
	base := GPUMemory(m, shardParams, pol, noAct, seq, bucketParams, gpuBuckets)
	head := m
	head.Layers = 0
	logit := head.ActivationBytes(exec.MicroBatch, seq, false)
	perLayer := (m.ActivationBytes(exec.MicroBatch, seq, false) - logit) / int64(m.Layers)
	w, floor := m.Layers, hw.ActWindow(0, m.Layers)
	for w > floor && base+logit+int64(w)*perLayer > chip.GPU.MemBytes {
		w--
	}
	return w, w < m.Layers
}

// Fits reports whether the configuration fits one Superchip of the
// cluster, with the reason when it does not.
func Fits(chip hw.Chip, m model.Config, shardParams int64, pol Policy, exec sched.Execution, seq int, bucketParams int64, gpuBuckets int) (bool, string) {
	g := GPUMemory(m, shardParams, pol, exec, seq, bucketParams, gpuBuckets)
	if g > chip.GPU.MemBytes {
		return false, fmt.Sprintf("GPU: need %d GiB > %d GiB HBM", g>>30, chip.GPU.MemBytes>>30)
	}
	c := CPUMemory(shardParams, bucketParams, gpuBuckets)
	if c > chip.CPU.MemBytes {
		return false, fmt.Sprintf("CPU: need %d GiB > %d GiB DDR", c>>30, chip.CPU.MemBytes>>30)
	}
	return true, ""
}
