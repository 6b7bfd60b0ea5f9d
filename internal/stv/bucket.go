// Package stv holds the parts of speculation-then-validation training
// (§4.4) on real numerics: the CPU-resident optimizer applies per-bucket
// Adam steps speculatively, validates them (global-norm clipping check,
// NaN/Inf check, both read off one sum of squares taken as the buckets
// step) only after the next window's first forward, and rolls back
// exactly when validation fails. The synchronize-then-execute (STE)
// baseline schedule resolves each step at once, so exactness can be
// asserted: STV training must produce bit-identical weights to STE
// training on the same data. internal/dp runs the schedule, on one
// superchip or many; stvref is its serial reference.
//
// The bucket partition and its per-bucket gradient/master accessors are
// exported so internal/dp can shard optimizer state across simulated
// superchip ranks along the same bucket boundaries (buckets stay the unit
// of offload, reduction, and rollback). Where a bucket's fp32 masters and
// Adam moments live between touches is delegated to a BucketStore (see
// store.go): permanently resident DRAM, or a windowed file-backed NVMe
// tier with prefetch/write-behind.
package stv

import (
	"fmt"

	"superoffload/internal/fp16"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
)

// Bucket is one contiguous shard of the parameter space: the unit of
// gradient offload, speculative stepping, and rollback. The gradient
// staging buffer (the D2H transfer target) stays DRAM-resident on the
// bucket; the two versions of its fp32 masters and Adam moments (the
// current one and the rollback point) live behind the bucket's store and
// are acquired only while being touched. The group's model tensors hold
// the fp16 working weights: every step, turn and Load publishes the
// current masters into them rounded through fp16.
type Bucket struct {
	group nn.Params // model tensors covered by this bucket, in order
	grad  []float32 // staged fp32 gradients (Cast_gpu → Move_fp32 path)
	store BucketStore
	idx   int  // index within the store (the global bucket index)
	dirty bool // a speculative, not-yet-validated step has been applied
}

// NewBucket flattens the given parameter group into one shard, seeding the
// store's fp32 masters from the group's current weights.
func NewBucket(group nn.Params, store BucketStore, idx int) *Bucket {
	n := group.TotalSize()
	flat := make([]float32, n)
	off := 0
	for _, p := range group {
		copy(flat[off:], p.W.Data)
		off += p.Size()
	}
	store.Seed(idx, flat)
	return &Bucket{
		group: group,
		grad:  make([]float32, n),
		store: store,
		idx:   idx,
	}
}

// Size returns the bucket's element count.
func (b *Bucket) Size() int { return len(b.grad) }

// Index returns the bucket's global index (its store key).
func (b *Bucket) Index() int { return b.idx }

// Grad exposes the bucket's staged gradient buffer. Under data parallelism
// the bucket owner reduces rank contributions into it before stepping.
func (b *Bucket) Grad() []float32 { return b.grad }

// AppendMaster appends a copy of the bucket's fp32 master weights to dst
// (a copy, not a view: the state may be evicted once this returns).
func (b *Bucket) AppendMaster(dst []float32) []float32 {
	st := b.store.Acquire(b.idx)
	dst = append(dst, st.Shard.Master...)
	b.store.Release(b.idx, ReleaseClean)
	return dst
}

// MasterWeights returns the buckets' fp32 master weights concatenated in
// the given order — the ground truth for exactness comparisons.
func MasterWeights(buckets []*Bucket) []float32 {
	var out []float32
	for _, bk := range buckets {
		out = bk.AppendMaster(out)
	}
	return out
}

// AccumGrad stages the model's raw (still loss-scaled) gradients into the
// buffer, overwriting on the first contribution and adding element-wise
// afterwards. Gradient accumulation and the data-parallel reduce both sum
// contributions this way, one whole contribution at a time in a fixed
// order, so the two produce bit-identical sums.
func (b *Bucket) AccumGrad(first bool) {
	off := 0
	for _, p := range b.group {
		g := p.G.Data
		d := b.grad[off : off+len(g)]
		if first {
			copy(d, g)
		} else {
			for i, v := range g {
				d[i] += v
			}
		}
		off += len(g)
	}
}

// AccumInto adds src into dst element-wise (the owner side of the
// data-parallel reduce; contribution order is the caller's contract).
func AccumInto(dst, src []float32, first bool) {
	if first {
		copy(dst, src)
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

// publish writes the masters into the group's model tensors rounded
// through fp16, as the H2D parameter return does in mixed precision (GPU
// working weights are fp16): one fp16.Round pass per tensor.
func publish(group nn.Params, master []float32) {
	off := 0
	for _, p := range group {
		dst := p.W.Data
		fp16.Round(dst, master[off:off+len(dst)])
		off += len(dst)
	}
}

// The version a step reads; it writes the current one. ahead (a
// speculative step) flips first, so the old current version stays behind
// as the rollback point; again (a clip) re-steps from that rollback point.
func again(st *BucketState) *optim.MixedShard { return st.prev }
func ahead(st *BucketState) *optim.MixedShard {
	st.other()
	st.flip()
	return st.prev
}

// step is the one per-bucket update of §4.4: acquire the state, pick the
// version Adam reads, apply GraceAdam to the staged gradients scaled by
// gs, publish the new masters as fp16 weights, release. GraceAdam scales
// the buffer in place, g[i]·gs rounded to fp32 (nothing at gs = 1):
// a speculative step's sum of squares is taken after the step and reads
// the scaled buffer, every other caller has already resolved its verdict,
// and the buffer's next use is an overwrite (the next window's first
// AccumGrad / AccumInto).
func (b *Bucket) step(cfg optim.Config, gs float32, from func(*BucketState) *optim.MixedShard) {
	st := b.store.Acquire(b.idx)
	st.Shard.StepFrom(from(st), cfg, b.grad, gs)
	publish(b.group, st.Shard.Master)
	b.store.Release(b.idx, ReleaseStep)
}

// SpeculativeStep steps the bucket's state with the staged (unclipped)
// gradients scaled by inv — the 1/(lossScale·contributions) normalisation,
// which stays in the buffer for the caller's sum of squares — ahead of
// validation. It
// overwrites the previous version, so on a bucket whose last verdict is not
// yet applied (Apply) it panics rather than destroy that verdict's
// rollback point.
func (b *Bucket) SpeculativeStep(cfg optim.Config, inv float32) {
	if b.dirty {
		panic(fmt.Sprintf("stv: speculative step on bucket %d before its last verdict was applied", b.idx))
	}
	b.step(cfg, inv, ahead)
	b.dirty = true
}

// Apply executes the verdict on the bucket's speculative step (§4.4).
// Commit keeps it — no store access, the speculative state already is the
// committed state; Skip flips back to the version the step read and
// republishes its weights; Clip re-applies the step from that version
// with the gradients scaled by r.ClipScale, under the hyperparameters the
// speculative step used. A bucket with no speculative step outstanding is
// left alone.
func (b *Bucket) Apply(r Resolution) {
	if !b.dirty || r.Action == None {
		return
	}
	b.dirty = false
	switch r.Action {
	case Clip:
		b.step(r.Adam, float32(r.ClipScale), again)
	case Skip:
		b.turn(false)
	}
}

// turn flips the bucket to its other version (a skip's rollback point, a
// Load's staged one), dropping the one it leaves if drop, and publishes
// its masters as fp16 weights.
func (b *Bucket) turn(drop bool) {
	st := b.store.Acquire(b.idx)
	st.flip()
	if drop {
		st.prev = nil
	}
	publish(b.group, st.Shard.Master)
	b.store.Release(b.idx, ReleaseFlush)
}

// PartitionGroups splits params into ordered groups of at most targetElems
// elements without allocating optimizer state (a parameter larger than the
// target gets its own group; tensors are never split so the optimizer sees
// whole tensors). Every rank of a data-parallel engine derives the same
// layout from its replica, so bucket indices agree across ranks.
func PartitionGroups(params nn.Params, targetElems int) []nn.Params {
	if targetElems <= 0 {
		panic(fmt.Sprintf("stv: bucket size %d must be positive", targetElems))
	}
	var out []nn.Params
	var cur nn.Params
	n := 0
	for _, p := range params {
		if n > 0 && n+p.Size() > targetElems {
			out = append(out, cur)
			cur, n = nil, 0
		}
		cur = append(cur, p)
		n += p.Size()
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// partitionParams groups model parameters into buckets of at most
// targetElems elements over the given store.
func partitionParams(params nn.Params, targetElems int, store BucketStore) []*Bucket {
	groups := PartitionGroups(params, targetElems)
	out := make([]*Bucket, len(groups))
	for i, g := range groups {
		out[i] = NewBucket(g, store, i)
	}
	return out
}
