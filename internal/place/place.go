// Package place is the heterogeneous placement subsystem bridging the
// analytic planner (internal/core) and the real STV engine (internal/stv,
// internal/dp): it assigns every optimizer bucket an update tier —
// GPU-resident, CPU Adam over the C2C link, or the windowed NVMe store —
// and models the resulting superchip step time on virtual clocks.
//
// The paper's §4.3 adaptive weight-update placement keeps a tail of
// buckets on the GPU: the buckets whose gradients are produced last in
// backward would otherwise pay a D2H → CPU Adam → H2D round trip with
// nothing left to hide it behind, so their synchronous GPU update is
// cheaper than offloading them. Plans express exactly that split; Auto
// derives it by grid search over the virtual-clock model, and FromCore
// maps a placement the analytic planner computed for a paper-scale
// workload onto the real engine's bucket partition.
//
// Placement is a scheduling/residency decision only: the engines apply
// the same Adam kernel to every tier, so trajectories, rollbacks, and
// checkpoints stay bit-identical to the homogeneous trainer for any plan.
package place

import (
	"fmt"
	"math"
	"strings"

	"superoffload/internal/core"
)

// Tier is where one bucket's weight update runs (and where its optimizer
// state lives between touches).
type Tier int

const (
	// GPUResident buckets keep optimizer state in HBM and update
	// synchronously on the GPU stream after backward — the paper's
	// GPU-retained bucket tail (§4.3).
	GPUResident Tier = iota
	// CPUAdam buckets follow the paper's main path: gradients cast on
	// the GPU and moved fp32 over NVLink-C2C, the fused CPU Adam step,
	// and the fp16 weight return (§4.4–§4.6).
	CPUAdam
	// NVMeWindow buckets additionally spill optimizer state to the
	// windowed file-backed store between touches (the ZeRO-Infinity
	// third tier, stv.NVMeStore).
	NVMeWindow

	// NumTiers counts the tiers (array-index bound for per-tier
	// telemetry).
	NumTiers = 3
)

// String names the tier for logs, telemetry tables and metric names
// (superoffload_placement_<tier>_*): lowercase, no separators, stable
// across releases.
func (t Tier) String() string {
	switch t {
	case GPUResident:
		return "gpu"
	case CPUAdam:
		return "cpu"
	case NVMeWindow:
		return "nvme"
	}
	return "unknown"
}

// Plan assigns a tier to every bucket of a partition, indexed by global
// bucket index (internal/stv's bucket order).
type Plan struct {
	// Tiers[b] is bucket b's update tier.
	Tiers []Tier
}

// Uniform places every one of n buckets on the same tier.
func Uniform(n int, tier Tier) Plan {
	tiers := make([]Tier, n)
	for i := range tiers {
		tiers[i] = tier
	}
	return Plan{Tiers: tiers}
}

// GPUTail is the paper's §4.3 split over n buckets: the gpuBuckets
// buckets produced last in backward (the lowest bucket indices — backward
// walks buckets in descending index order) stay GPU-resident, the rest
// take the CPU Adam path. gpuBuckets clamps to [0, n].
func GPUTail(n, gpuBuckets int) Plan {
	if gpuBuckets < 0 {
		gpuBuckets = 0
	}
	if gpuBuckets > n {
		gpuBuckets = n
	}
	p := Uniform(n, CPUAdam)
	for i := 0; i < gpuBuckets; i++ {
		p.Tiers[i] = GPUResident
	}
	return p
}

// NumBuckets returns the number of buckets the plan covers.
func (p Plan) NumBuckets() int { return len(p.Tiers) }

// Tier returns bucket idx's tier; indices beyond the plan default to
// CPUAdam (the homogeneous path), so a short plan degrades gracefully.
func (p Plan) Tier(idx int) Tier {
	if idx < 0 || idx >= len(p.Tiers) {
		return CPUAdam
	}
	return p.Tiers[idx]
}

// Counts is the per-tier bucket census of a plan.
type Counts struct {
	// GPU, CPU, and NVMe count the buckets on each tier.
	GPU, CPU, NVMe int
}

// Counts tallies the plan's buckets per tier.
func (p Plan) Counts() Counts {
	var c Counts
	for _, t := range p.Tiers {
		switch t {
		case GPUResident:
			c.GPU++
		case CPUAdam:
			c.CPU++
		case NVMeWindow:
			c.NVMe++
		}
	}
	return c
}

// Validate checks the plan covers exactly nBuckets buckets with known
// tiers.
func (p Plan) Validate(nBuckets int) error {
	if len(p.Tiers) != nBuckets {
		return fmt.Errorf("place: plan covers %d buckets, partition has %d", len(p.Tiers), nBuckets)
	}
	for i, t := range p.Tiers {
		if t < GPUResident || t > NVMeWindow {
			return fmt.Errorf("place: bucket %d has unknown tier %d", i, t)
		}
	}
	return nil
}

// String renders the census compactly, e.g. "gpu×2+cpu×6".
func (p Plan) String() string {
	c := p.Counts()
	var parts []string
	if c.GPU > 0 {
		parts = append(parts, fmt.Sprintf("gpu×%d", c.GPU))
	}
	if c.CPU > 0 {
		parts = append(parts, fmt.Sprintf("cpu×%d", c.CPU))
	}
	if c.NVMe > 0 {
		parts = append(parts, fmt.Sprintf("nvme×%d", c.NVMe))
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, "+")
}

// WithNVMeBody returns a copy of the plan with every CPUAdam bucket
// demoted to the NVMe window — how the facade composes a placement with
// the nvme offload backend (the GPU tail stays resident; the offloaded
// body additionally spills between touches).
func (p Plan) WithNVMeBody() Plan {
	out := Plan{Tiers: append([]Tier(nil), p.Tiers...)}
	for i, t := range out.Tiers {
		if t == CPUAdam {
			out.Tiers[i] = NVMeWindow
		}
	}
	return out
}

// FromCore maps the analytic planner's adaptive placement onto a real
// bucket partition of nBuckets buckets: the GPU-retained fraction of the
// paper-scale plan carries over, keeping at least one GPU bucket when the
// analytic plan retained any and at least one offloaded bucket when it
// offloaded any.
func FromCore(cp core.Plan, nBuckets int) Plan {
	if nBuckets < 1 {
		return Plan{}
	}
	g := 0
	if cp.NBuckets > 0 && cp.GPUBuckets > 0 {
		g = int(math.Round(float64(cp.GPUBuckets) / float64(cp.NBuckets) * float64(nBuckets)))
		if g < 1 {
			g = 1
		}
		if g > nBuckets {
			g = nBuckets
		}
		if cp.GPUBuckets < cp.NBuckets && g == nBuckets {
			g = nBuckets - 1
		}
	}
	return GPUTail(nBuckets, g)
}
