package place

import (
	"math"

	"superoffload/internal/hw"
)

// Virtual-clock superchip model. One optimizer step is scheduled over
// five engines in the style of stv.NVMeStore's throttled clocks: the GPU
// stream (backward chunks and GPU-resident Adam steps), the D2H and H2D
// copy engines of the C2C link (casts fused in), the CPU optimizer, and
// the NVMe array. Buckets enter in gradient-production order (descending
// bucket index — backward walks the partition back to front), each tier
// charges its phases on the engines it occupies, and the step's pipelined
// time is the completion of the schedule while the serialized time sums
// every phase with no overlap — the same pipelined-vs-serialized contrast
// the NVMe store's telemetry reports for residency.

// Shape is the per-step compute feeding the virtual clocks: how much
// backward work the GPU performs before the optimizer phases drain.
type Shape struct {
	// Tokens is batch rows × positions processed by this replica's
	// backward this step (summed over accumulation micro-batches).
	Tokens int
	// Hidden and Seq feed the GEMM-efficiency model.
	Hidden int
	Seq    int
	// Params is the replica's parameter count (backward covers the whole
	// model even when this holder owns only a shard of the optimizer).
	Params int64
	// Act describes the activation-offload tier, when one is configured.
	// The zero value (Act.Layers == 0) models fully resident activations
	// and leaves the step schedule exactly as before.
	Act ActShape
}

// ActShape describes an activation store (internal/act) hanging off the
// step: per-layer forward activations stream out on the copy/flash
// engine behind a resident window and prefetch back ahead of backward
// with depth-2 double buffering.
type ActShape struct {
	// Layers is the transformer depth (0 disables activation modeling).
	Layers int
	// Resident is the store's resident window W: the trailing W layers
	// never spill; the model clamps it through hw.ActWindow.
	Resident int
	// Heads is the attention head count feeding hw.ActLayerBytes.
	Heads int
	// NVMe selects the flash tier; false models the DRAM cache tier over
	// the C2C link.
	NVMe bool
}

// BucketWork is one bucket the holder steps: its global index (production
// order and ready time follow from it), size, and tier.
type BucketWork struct {
	// Index is the global bucket index within the partition.
	Index int
	// Elems is the bucket's parameter count.
	Elems int
	// Tier is where the bucket's update runs.
	Tier Tier
}

// Work builds the full-partition work list for the plan over the given
// per-bucket element counts (elems[b] is bucket b's size).
func (p Plan) Work(elems []int) []BucketWork {
	out := make([]BucketWork, len(elems))
	for i, n := range elems {
		out[i] = BucketWork{Index: i, Elems: n, Tier: p.Tier(i)}
	}
	return out
}

// TierSeconds is one tier's share of a step's modeled phase times.
type TierSeconds struct {
	// Buckets counts the work items on this tier.
	Buckets int
	// D2H is the gradient hop to the CPU over the C2C link, with the
	// fp16→fp32 cast fused into the copy.
	D2H float64
	// Adam is optimizer compute (CPU kernel for cpu/nvme tiers, the
	// post-backward GPU kernel for the resident tail).
	Adam float64
	// H2D is the fp16 weight return over the C2C link, with the fp32→fp16
	// re-cast fused into the copy.
	H2D float64
	// NVMe is flash traffic (state fetch + write-behind flush).
	NVMe float64
}

// Total sums the tier's phase seconds.
func (t TierSeconds) Total() float64 { return t.D2H + t.Adam + t.H2D + t.NVMe }

// Breakdown is the virtual-clock result for one optimizer step.
type Breakdown struct {
	// Backward is the modeled GPU backward producing the gradients.
	Backward float64
	// Forward is the modeled GPU forward (half of Backward). Zero unless
	// the shape carries an activation tier: otherwise forward never
	// interacts with the optimizer schedule and stays out of both totals.
	Forward float64
	// ActWrite and ActRead are the activation tier's spill and prefetch
	// transfer times; ActStall is the portion of the reads the depth-2
	// prefetch could not hide ahead of the backward layer that needed
	// them (the activation tier's only critical-path contribution).
	ActWrite float64
	ActRead  float64
	ActStall float64
	// Pipelined is the schedule's completion time with every engine
	// overlapping: backward + whatever optimizer work the clocks could
	// not hide.
	Pipelined float64
	// Serialized is the no-overlap reference: backward plus every phase
	// of every bucket end to end.
	Serialized float64
	// Tiers breaks the phase seconds down per tier, indexed by Tier.
	Tiers [NumTiers]TierSeconds
}

// StepTimes schedules one optimizer step on the virtual clocks. work
// lists the holder's buckets in ascending global index (a rank models
// only its owned ZeRO shard; nGlobal is the full partition size, which
// spaces gradient-ready times across the whole backward). The returned
// breakdown is deterministic: clocks advance in program order, never by
// wall time.
func StepTimes(spec hw.SuperchipSpec, work []BucketWork, nGlobal int, shape Shape) Breakdown {
	var bd Breakdown
	if nGlobal < len(work) {
		nGlobal = len(work)
	}
	if nGlobal == 0 {
		return bd
	}
	bd.Backward = spec.BackwardTime(shape.Params, shape.Tokens, shape.Hidden, shape.Seq)
	fwdEnd := actSchedule(spec, shape, &bd)
	chunk := (bd.Backward + bd.ActStall) / float64(nGlobal)

	// Engine clocks: gpu is the GPU stream's current time; the others
	// are each engine's next-free time. With an activation tier the GPU
	// stream starts after the modeled forward (whose spills ride their
	// own store engine), and prefetch stalls stretch the backward the
	// optimizer chunks are spaced over.
	gpu := fwdEnd
	var d2h, cpu, h2d, nvme float64

	prevIndex := nGlobal // one past the first-produced bucket
	for i := len(work) - 1; i >= 0; i-- {
		wk := work[i]
		elems := int64(wk.Elems)
		// Backward chunks covering buckets produced before this one
		// (including non-owned buckets between the holder's shards).
		gpu += float64(prevIndex-wk.Index) * chunk
		prevIndex = wk.Index
		ts := &bd.Tiers[wk.Tier]
		ts.Buckets++
		if wk.Tier == GPUResident {
			continue // stepped post-backward, below
		}
		// The gradient cast rides the D2H copy (fused streaming kernel),
		// so the hop is charged max(cast, move) on the copy engine and
		// nothing on the GPU stream.
		dt := spec.GradD2HFusedTime(elems)
		ts.D2H += dt
		d2h = math.Max(gpu, d2h) + dt
		stateReady := d2h
		if wk.Tier == NVMeWindow {
			// The state fetch is gradient-independent: prefetches
			// pipeline on the flash engine from step start.
			ft := spec.NVMeFetchTime(elems)
			ts.NVMe += ft
			nvme += ft
			stateReady = math.Max(stateReady, nvme)
		}
		at := spec.CPUAdamTime(elems)
		ts.Adam += at
		cpu = math.Max(stateReady, cpu) + at
		ht := spec.WeightH2DFusedTime(elems)
		ts.H2D += ht
		h2d = math.Max(cpu, h2d) + ht
		if wk.Tier == NVMeWindow {
			// Write-behind flush: charged to the serialized reference
			// but never on the step's critical path (the store's
			// eviction discipline).
			ts.NVMe += spec.NVMeFlushTime(elems)
		}
	}
	// Backward chunks below the lowest owned bucket, then the resident
	// tail's synchronous GPU updates in production order.
	gpu += float64(prevIndex) * chunk
	for i := len(work) - 1; i >= 0; i-- {
		if work[i].Tier == GPUResident {
			at := spec.GPUAdamTime(int64(work[i].Elems))
			bd.Tiers[GPUResident].Adam += at
			gpu += at
		}
	}

	bd.Pipelined = math.Max(gpu, math.Max(cpu, h2d))
	bd.Serialized = bd.Backward + bd.Forward + bd.ActWrite + bd.ActRead
	for _, ts := range bd.Tiers {
		bd.Serialized += ts.Total()
	}
	// The two figures sum the same phase times in different orders; when
	// nothing overlaps they are equal up to float addition noise, so
	// clamp to keep Pipelined ≤ Serialized an invariant.
	bd.Pipelined = math.Min(bd.Pipelined, bd.Serialized)
	return bd
}

// actSchedule models the activation tier around the optimizer step,
// mirroring the real store's clock discipline (internal/act): layer
// spills enqueue on the store engine as soon as the write-behind window
// slides past them during forward, and backward walks the layers top
// down with at most two prefetch reads in flight, stalling only when
// the layer it needs has not landed. It fills bd.Forward/ActWrite/
// ActRead/ActStall and returns the GPU time at which forward completes;
// with no activation tier (shape.Act.Layers == 0) it is a no-op and
// returns 0, leaving the step schedule bit-identical to the
// activation-free model.
func actSchedule(spec hw.SuperchipSpec, shape Shape, bd *Breakdown) float64 {
	L := shape.Act.Layers
	if L <= 0 || shape.Tokens <= 0 {
		return 0
	}
	bd.Forward = bd.Backward / 2
	w := hw.ActWindow(shape.Act.Resident, L)
	spilled := L - w
	if spilled <= 0 {
		return bd.Forward
	}
	layerFwd := bd.Forward / float64(L)
	layerBwd := bd.Backward / float64(L)
	bytes := hw.ActLayerBytes(shape.Tokens, shape.Hidden, shape.Act.Heads, shape.Seq)
	var wt, rt float64
	if shape.Act.NVMe {
		wt = spec.NVMe.WriteTime(bytes)
		rt = spec.NVMe.ReadTime(bytes)
	} else {
		wt = spec.Chip.Link.TransferTime(bytes, hw.DeviceToHost, hw.Pinned)
		rt = spec.Chip.Link.TransferTime(bytes, hw.HostToDevice, hw.Pinned)
	}

	// Forward: layer s spills when layer s+w finishes (the window slides
	// past it), serialized on the store's own engine clock.
	var dev float64
	for s := 0; s < spilled; s++ {
		issue := float64(s+w+1) * layerFwd
		dev = math.Max(dev, issue)
		dev += wt
		bd.ActWrite += wt
	}

	// Backward: depth-2 double-buffered prefetch, consuming spilled
	// layers in the order backward reaches them (descending index).
	cpu := bd.Forward
	done := make([]float64, spilled)
	next := spilled - 1
	inflight := 0
	for l := L - 1; l >= 0; l-- {
		for inflight < 2 && next >= 0 {
			dev = math.Max(dev, cpu)
			dev += rt
			bd.ActRead += rt
			done[next] = dev
			next--
			inflight++
		}
		if l < spilled {
			if done[l] > cpu {
				bd.ActStall += done[l] - cpu
				cpu = done[l]
			}
			inflight--
		}
		cpu += layerBwd
	}
	return bd.Forward
}

// ActResidentBytes is the HBM the activation tier keeps resident: the
// trailing hw.ActWindow layers that never spill. Auto charges it against
// the same budget as retained optimizer state, co-planning the two tiers,
// and the facade's step-shape HBM guard charges the same product.
func ActResidentBytes(shape Shape) int64 {
	L := shape.Act.Layers
	if L <= 0 || shape.Tokens <= 0 {
		return 0
	}
	return int64(hw.ActWindow(shape.Act.Resident, L)) * hw.ActLayerBytes(shape.Tokens, shape.Hidden, shape.Act.Heads, shape.Seq)
}

// GPUStateBytesPerElem is the HBM footprint of one GPU-resident
// parameter's optimizer state (fp32 master + Adam m + v + fp32 gradient),
// the budget the Auto grid search charges per retained bucket.
const GPUStateBytesPerElem = 16

// Auto derives the GPU-retained bucket tail for a partition with the
// given per-bucket element counts by the paper's §4.3 policy: grid-search
// the tail size, keeping at most budgetBytes of optimizer state in HBM
// (≤0 defaults to a quarter of the chip's memory), and pick the placement
// with the lowest modeled pipelined step time. Ties prefer the smaller
// tail, so the all-CPU plan wins when retention buys nothing.
func Auto(spec hw.SuperchipSpec, elems []int, shape Shape, budgetBytes int64) Plan {
	nb := len(elems)
	if nb == 0 {
		return Plan{}
	}
	if budgetBytes <= 0 {
		budgetBytes = spec.Chip.GPU.MemBytes / 4
	}
	// Resident activations and retained optimizer state share one HBM
	// budget: an activation tier's never-spilled window is charged first,
	// shrinking what the grid search may retain.
	if budgetBytes -= ActResidentBytes(shape); budgetBytes < 0 {
		budgetBytes = 0
	}
	best := Uniform(nb, CPUAdam)
	bestT := StepTimes(spec, best.Work(elems), nb, shape).Pipelined
	var gpuBytes int64
	for g := 1; g <= nb; g++ {
		gpuBytes += GPUStateBytesPerElem * int64(elems[g-1])
		if gpuBytes > budgetBytes {
			break
		}
		p := GPUTail(nb, g)
		if t := StepTimes(spec, p.Work(elems), nb, shape).Pipelined; t < bestT {
			best, bestT = p, t
		}
	}
	return best
}
