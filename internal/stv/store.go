package stv

import "superoffload/internal/optim"

// Bucket residency. The seed engine kept every bucket's fp32 master
// weights and Adam moments permanently resident in host DRAM, which caps
// trainable model size at host memory — exactly the wall the NVMe third
// tier of ZeRO-Infinity's design breaks. BucketStore makes that residency
// an explicit, pluggable resource: the engine acquires a bucket's
// optimizer state immediately before touching it and releases it right
// after, so a store may keep only a small window of buckets resident and
// stream the rest through backing storage, overlapping the next bucket's
// fetch with the current bucket's Adam step.
//
// A speculative step's rollback point (§4.4) is the version of the state
// it read: Adam steps from the current version into the other and flips,
// and stores keep both versions together until the verdict lands (the
// flash store as two slots of the bucket's record), so a Skip or Clip
// verdict (Bucket.Apply) stays bit-exact on windowed state.

// BucketState is the optimizer-tier payload for one bucket: two versions
// of its fp32 masters and Adam moments. Shard is the current one, whose
// masters the bucket's model tensors hold rounded through fp16; prev is
// the other, allocated by the first speculative step, so a bucket only
// ever stepped in place never holds it. slot is the version Shard holds:
// the flash store keeps version i in slot i of the bucket's record.
type BucketState struct {
	Shard *optim.MixedShard
	prev  *optim.MixedShard
	slot  int
}

// flip swaps the current version with the previous one; the caller
// republishes the model tensors.
func (st *BucketState) flip() {
	sh, o := st.Shard, st.prev
	sh.Master, o.Master = o.Master, sh.Master
	sh.State, o.State = o.State, sh.State
	st.slot ^= 1
}

// other returns the non-current version, allocating it on first use.
func (st *BucketState) other() *optim.MixedShard {
	if st.prev == nil {
		n := len(st.Shard.Master)
		st.prev = &optim.MixedShard{Master: make([]float32, n), State: optim.NewState(n)}
	}
	return st.prev
}

// ReleaseMode tells the store what happened to a bucket's state during
// the hold, separating "needs write-back" from "an Adam step ran" so
// modeled-time accounting stays honest.
type ReleaseMode int

const (
	// ReleaseClean: the holder only read the state; eviction may drop it
	// without a flush.
	ReleaseClean ReleaseMode = iota
	// ReleaseFlush: the state changed (checkpoint load, skip
	// rollback) and must be written back on eviction; no optimizer
	// compute is modeled.
	ReleaseFlush
	// ReleaseStep: the state changed by one Adam step — write back on
	// eviction, and stores that model time account the bucket's step as
	// overlappable compute on the consumer timeline.
	ReleaseStep
)

// BucketStore manages residency of per-bucket optimizer state. Stores are
// driven by a single goroutine (one dp rank); they are not
// safe for concurrent use by multiple holders, and at most one bucket is
// held (acquired and not yet released) at a time.
type BucketStore interface {
	// Seed installs bucket idx's initial fp32 master weights with zeroed
	// Adam moments. Called once per bucket, in ascending index order,
	// before training; the set of seeded indices defines the store's
	// prefetch cycle.
	Seed(idx int, master []float32)
	// Acquire makes bucket idx's state resident and returns it. The
	// holder may mutate the state freely until the matching Release.
	Acquire(idx int) *BucketState
	// Release ends the hold started by Acquire; mode reports what the
	// holder did with the state.
	Release(idx int, mode ReleaseMode)
	// Close flushes in-flight work and releases backing resources. The
	// store is unusable afterwards.
	Close() error
}

// TelemetrySource is implemented by stores that keep modeled NVMe-tier
// accounting (MLPStore, and PlacedStore when its plan has NVMe-tier
// buckets). ok is false when the store has nothing to model.
type TelemetrySource interface {
	// NVMeTelemetry returns the store's modeled flash-tier accounting.
	NVMeTelemetry() (StoreTelemetry, bool)
}

// DRAMStore keeps every bucket permanently resident — the seed engine's
// behavior, and the fast path when optimizer state fits host memory.
type DRAMStore struct {
	states map[int]*BucketState
}

// NewDRAMStore returns an empty all-resident store.
func NewDRAMStore() *DRAMStore {
	return &DRAMStore{states: map[int]*BucketState{}}
}

// Seed installs the bucket's initial state.
func (s *DRAMStore) Seed(idx int, master []float32) {
	s.states[idx] = &BucketState{Shard: optim.NewMixedShard(master)}
}

// Acquire returns the always-resident state.
func (s *DRAMStore) Acquire(idx int) *BucketState { return s.states[idx] }

// Release is a no-op: nothing is ever evicted.
func (s *DRAMStore) Release(idx int, mode ReleaseMode) {}

// Close is a no-op.
func (s *DRAMStore) Close() error { return nil }
