package sched

import (
	"fmt"

	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/sim"
)

// Resource names used by every offload schedule.
const (
	ResGPU = "gpu"    // GPU compute stream
	ResD2H = "d2h"    // device→host copy engine
	ResH2D = "h2d"    // host→device copy engine
	ResCPU = "cpu"    // CPU optimizer (kernel already uses all cores)
	ResVal = "cpuval" // background validation workers (§4.4)
)

// OffloadPlan parameterizes one bucketized offload schedule. The same
// builder expresses ZeRO-Offload (synchronous, CPU-tuned defaults),
// ZeRO-Infinity (weight-flow, tiny buckets), FSDP-Offload (weight-flow
// with per-layer host syncs) and SuperOffload (speculative, SAC, GPU-
// retained buckets) — they differ only in these knobs.
type OffloadPlan struct {
	Chip hw.Chip
	// Link is the host link actually used (the local C2C link, or the
	// cross-NUMA path when misbound, §4.7).
	Link  hw.LinkSpec
	Model model.Config
	Exec  Execution
	Seq   int

	// NBuckets is the gradient/parameter bucket count; BucketParams the
	// parameters per bucket.
	NBuckets     int
	BucketParams int64

	// GPUBuckets buckets (the last-produced ones in backward order,
	// i.e. the first layers) keep optimizer states on the GPU (§4.3).
	GPUBuckets int
	// CastOnGPU selects Superchip-aware casting: cast on GPU and move
	// fp32 pinned; false is the PCIe-era path: move fp16 through an
	// unpinned staging buffer and cast on the CPU (§4.5).
	CastOnGPU bool
	// Speculative selects speculation-then-validation; false inserts
	// the synchronize-then-execute barrier (§4.4).
	Speculative bool
	// CPUImpl is the CPU optimizer kernel (§4.6).
	CPUImpl hw.AdamImpl
	// WeightFlow streams fp16 weights from CPU for both passes instead
	// of keeping them GPU-resident (§4.2).
	WeightFlow bool
	// PerLayerSync adds a blocking host synchronization before every
	// forward/backward chunk (FSDP-Offload's dispatch behaviour).
	PerLayerSync float64
	// UnpinnedWeights forces weight streaming through staged unpinned
	// buffers (ZeRO-Infinity's partially pinned pools).
	UnpinnedWeights bool
	// PageableTransfers models naive framework copies of pageable host
	// memory for weights and gradients (FSDP's CPU-offload path): fp32
	// payloads at hw.PageableBW.
	PageableTransfers bool

	// Iterations simulated; ≥3 recommended (warm-up + steady pair).
	Iterations int
}

// SteadyStats summarizes the steady-state iteration extracted from a
// multi-iteration simulation.
type SteadyStats struct {
	IterTime    float64
	GPUUtil     float64
	GPUIdleFrac float64
}

// totalParams returns the parameter count covered by the bucket pipeline.
func (p OffloadPlan) totalParams() int64 { return int64(p.NBuckets) * p.BucketParams }

// gradXferTime returns the per-bucket gradient D2H wire time under the
// casting policy (§4.5). Cast-on-GPU moves fp32 over a pinned DMA path
// (the GPU-side cast itself is HBM-fast and folded in); cast-on-CPU moves
// fp16 but bounces through an unpinned staging buffer.
func (p OffloadPlan) gradXferTime() float64 {
	n := p.BucketParams
	if p.PageableTransfers {
		return p.Link.TransferTime(4*n, hw.DeviceToHost, hw.Pageable)
	}
	if p.CastOnGPU {
		return hw.CastTime(p.Chip, true, n) + p.Link.TransferTime(4*n, hw.DeviceToHost, hw.Pinned)
	}
	return p.Link.TransferTime(2*n, hw.DeviceToHost, hw.Unpinned)
}

// paramXferTime returns the per-bucket parameter H2D wire time.
func (p OffloadPlan) paramXferTime() float64 {
	n := p.BucketParams
	if p.CastOnGPU {
		return p.Link.TransferTime(4*n, hw.HostToDevice, hw.Pinned) + hw.CastTime(p.Chip, true, n)
	}
	return p.Link.TransferTime(2*n, hw.HostToDevice, hw.Unpinned)
}

// cpuBucketWork is the CPU-serialized time per offloaded bucket: dispatch
// overhead, fp16→fp32 cast of incoming gradients and fp32→fp16 cast of
// outgoing parameters when casting happens on the CPU (§4.5), and the
// fused Adam kernel itself.
func (p OffloadPlan) cpuBucketWork() float64 {
	t := hw.CPUDispatchPerBucketS + hw.AdamStepTime(p.Chip, p.CPUImpl, p.BucketParams)
	if !p.CastOnGPU {
		t += 2 * hw.CastTime(p.Chip, false, p.BucketParams)
	}
	return t
}

// weightXferTime is the per-bucket weight stream for weight-flow mode:
// fp16 pinned for SuperOffload, fp16 staged for ZeRO-Infinity, fp32
// pageable for FSDP.
func (p OffloadPlan) weightXferTime() float64 {
	if p.PageableTransfers {
		return p.Link.TransferTime(4*p.BucketParams, hw.HostToDevice, hw.Pageable)
	}
	pin := hw.Pinned
	if p.UnpinnedWeights {
		pin = hw.Unpinned
	}
	return p.Link.TransferTime(2*p.BucketParams, hw.HostToDevice, pin)
}

// validationTime is the deferred global-state computation (global norm +
// NaN/Inf scan): one read pass over fp32 gradients at a fraction of CPU
// bandwidth.
func (p OffloadPlan) validationTime() float64 {
	return 4 * float64(p.totalParams()) / (p.Chip.CPU.MemBW * 0.5)
}

// Build simulates the plan and returns the engine plus steady-state stats.
func Build(p OffloadPlan) (*sim.Engine, SteadyStats, error) {
	if p.Iterations < 2 {
		p.Iterations = 3
	}
	if p.NBuckets < 1 {
		return nil, SteadyStats{}, fmt.Errorf("sched: plan needs ≥1 bucket, got %d", p.NBuckets)
	}
	if p.GPUBuckets > p.NBuckets {
		p.GPUBuckets = p.NBuckets
	}

	e := sim.New()
	e.AddResource(ResGPU, 1)
	e.AddResource(ResD2H, 1)
	e.AddResource(ResH2D, 1)
	e.AddResource(ResCPU, 1)
	e.AddResource(ResVal, 1)

	// Pageable copies are CPU memcpys through the page-fault path: they
	// serialize with each other and with the optimizer on the CPU,
	// instead of riding the DMA engines.
	xferD2H, xferH2D := ResD2H, ResH2D
	if p.PageableTransfers {
		xferD2H, xferH2D = ResCPU, ResCPU
	}

	fwdT, bwdT := ComputeTimes(p.Chip, p.Model, p.Exec.MicroBatch, p.Seq, p.Exec.Checkpoint)
	eff := EffBatchEfficiency(p.Exec.MicroBatch, p.Seq)
	fwdT, bwdT = fwdT/eff, bwdT/eff

	// Per-bucket unit costs at the plan's true bucket size (latency
	// effects included), then coarsen: schedules with thousands of tiny
	// buckets (ZeRO-Infinity's 1 MiB blocks) are simulated as groups of
	// `group` buckets per task with costs summed, preserving totals and
	// per-bucket latency taxes while bounding the DAG size.
	const maxSimBuckets = 512
	group := 1
	if p.NBuckets > maxSimBuckets {
		group = (p.NBuckets + maxSimBuckets - 1) / maxSimBuckets
	}
	g := float64(group)
	gradX := g * p.gradXferTime()
	paramX := g * p.paramXferTime()
	weightX := g * p.weightXferTime()
	cpuStep := g * p.cpuBucketWork()
	gpuStep := g * hw.AdamStepTime(p.Chip, hw.AdamGPU, p.BucketParams)
	valT := p.validationTime()
	if group > 1 {
		p.NBuckets = (p.NBuckets + group - 1) / group
		p.GPUBuckets /= group
	}
	fwdChunk := fwdT / float64(p.NBuckets)
	bwdChunk := bwdT / float64(p.NBuckets)

	// Per-bucket state carried across iterations: the task whose
	// completion publishes bucket b's updated weights on the GPU
	// (weight-stationary) or on the CPU (weight-flow).
	paramReady := make([]*sim.Task, p.NBuckets)
	fwdStarts := make([]*sim.Task, 0, p.Iterations)

	// Per-iteration scratch for the STE synchronization barrier.
	var steOpts, steGrads []*sim.Task

	var prevIterTail *sim.Task
	for it := 0; it < p.Iterations; it++ {
		// ---- forward ----
		var fwdLast *sim.Task
		var fwdFirst *sim.Task
		for mb := 0; mb < p.Exec.GradAccum; mb++ {
			for b := 0; b < p.NBuckets; b++ {
				if p.PerLayerSync > 0 {
					syncT := e.Add("sync", ResGPU, p.PerLayerSync, sim.TagIdleWait)
					syncT.After(fwdLast, prevIterTail)
					fwdLast = syncT
				}
				f := e.Add(fmt.Sprintf("F%d.%d", it, b), ResGPU, fwdChunk, sim.TagCompute)
				f.After(fwdLast, prevIterTail)
				if p.WeightFlow {
					wx := e.Add(fmt.Sprintf("Wf%d.%d", it, b), xferH2D, weightX, sim.TagTransfer)
					wx.After(paramReady[b], prevIterTail)
					f.After(wx)
				} else {
					f.After(paramReady[b])
				}
				if fwdFirst == nil {
					fwdFirst = f
				}
				fwdLast = f
			}
			// ---- backward (buckets in reverse order) ----
			finalMB := mb == p.Exec.GradAccum-1
			bwdLast := fwdLast
			for i := 0; i < p.NBuckets; i++ {
				b := p.NBuckets - 1 - i // gradient production order
				if p.PerLayerSync > 0 {
					syncT := e.Add("sync", ResGPU, p.PerLayerSync, sim.TagIdleWait)
					syncT.After(bwdLast)
					bwdLast = syncT
				}
				bw := e.Add(fmt.Sprintf("B%d.%d", it, b), ResGPU, bwdChunk, sim.TagCompute)
				bw.After(bwdLast)
				if p.WeightFlow {
					wx := e.Add(fmt.Sprintf("Wb%d.%d", it, b), xferH2D, weightX, sim.TagTransfer)
					wx.After(paramReady[b])
					bw.After(wx)
				}
				bwdLast = bw
				if !finalMB {
					continue // gradients accumulate on-device
				}
				if b < p.GPUBuckets {
					// Repartitioned bucket: optimizer state on
					// GPU; step runs on the GPU stream after the
					// whole backward pass.
					gs := e.Add(fmt.Sprintf("Ug%d.%d", it, b), ResGPU, gpuStep, sim.TagOptim)
					gs.After(bw) // scheduled on gpu stream ⇒ runs post-backward
					paramReady[b] = gs
					continue
				}
				gx := e.Add(fmt.Sprintf("G%d.%d", it, b), xferD2H, gradX, sim.TagTransfer)
				gx.After(bw)
				opt := e.Add(fmt.Sprintf("U%d.%d", it, b), ResCPU, cpuStep, sim.TagOptim)
				opt.After(gx)
				if !p.Speculative {
					// STE: the optimizer may not start until every
					// gradient has arrived and been validated.
					// The dependency is attached below once all gx
					// exist; collect via deferred list.
					steOpts = append(steOpts, opt)
				}
				steGrads = append(steGrads, gx)
				if p.WeightFlow {
					// Weight-flow: updated weights stay on CPU and
					// stream during the next pass.
					paramReady[b] = opt
				} else {
					px := e.Add(fmt.Sprintf("P%d.%d", it, b), xferH2D, paramX, sim.TagTransfer)
					px.After(opt)
					paramReady[b] = px
				}
			}
			fwdLast = bwdLast
		}

		// ---- validation ----
		if len(steGrads) > 0 {
			// Barrier: all gradients of the iteration have arrived.
			barrier := e.Add(fmt.Sprintf("sync%d", it), ResVal, 0, sim.TagValidate)
			barrier.After(steGrads...)
			if p.Speculative {
				// Background validation overlapping the next
				// forward (§4.4); nothing waits on it in the
				// common (no-rollback) path being timed.
				v := e.Add(fmt.Sprintf("V%d", it), ResVal, valT, sim.TagValidate)
				v.After(barrier)
			} else {
				// STE: global-state computation gates every
				// optimizer step (the gray block of Fig. 3).
				v := e.Add(fmt.Sprintf("V%d", it), ResCPU, valT, sim.TagValidate)
				v.After(barrier)
				for _, o := range steOpts {
					o.After(v)
				}
			}
		}
		steOpts = steOpts[:0]
		steGrads = steGrads[:0]

		// The next iteration's forward waits for the backward to finish
		// and (via paramReady) for every bucket's weights; under STE the
		// synchronous schedule also implies the full optimizer phase is
		// drained by paramReady dependencies.
		prevIterTail = fwdLast
		fwdStarts = append(fwdStarts, fwdFirst)
	}

	if _, err := e.Run(); err != nil {
		return nil, SteadyStats{}, err
	}

	// Steady state is the last forward-start to forward-start interval
	// (Iterations ≥ 2 above guarantees there is one).
	n := len(fwdStarts)
	from, to := fwdStarts[n-2].Start, fwdStarts[n-1].Start
	gu := e.UtilizationBetween(ResGPU, from, to)
	// Host-sync stalls (TagIdleWait) occupy the stream but are not
	// useful work; count them as idle.
	util := (gu.Busy - gu.ByTag[sim.TagIdleWait]) / (to - from)
	return e, SteadyStats{IterTime: to - from, GPUUtil: util, GPUIdleFrac: 1 - util}, nil
}
