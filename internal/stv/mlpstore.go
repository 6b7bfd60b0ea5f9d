package stv

import (
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"sync"
	"time"

	"superoffload/internal/hw"
	"superoffload/internal/iolane"
	"superoffload/internal/obs"
	"superoffload/internal/optim"
)

// MLPStore is the flash tier's one bucket store (MLP-Offload): bucket
// records stripe across N flash paths — each an iolane.Lane: a backing
// file, a reads-first worker and a modeled device clock — behind an
// optional DRAM cache tier. One path and no cache is the classic
// single-lane NVMe store (the NewNVMeStore preset). Acquire
// auto-prefetches the next bucket's read while the consumer steps the
// current one (double buffering); evictions enqueue write-behind flushes
// nobody waits for, and the lane lets the fetch overtake them.
// Writes dispatch whole records to the least-loaded live path by virtual
// clock, reads follow the record to wherever it last landed, and a
// window eviction drops the state into the DRAM cache (LRU) before
// flash, so a cache hit skips the fetch. Numerics round-trip bit-exactly.
//
// Alongside the real (host-speed) file IO runs a virtual timeline
// throttled by hw.NVMeSpec: each lane's device clock serializes modeled
// transfers in issue order, and a consumer clock advances by modeled Adam
// compute (ReleaseStep) and by stalls; Telemetry contrasts the pipelined
// time with the serialized fetch+step+flush time.
//
// Each bucket is one record, which owns the bucket's state for the
// store's lifetime and says where that state lives: in the window, in
// the DRAM cache, or on flash. A record is also two flash slots, one per
// version of the state; fetches and modified evictions move only the
// current version's slot, so the rollback point never crosses flash (it
// stays in the record's state in DRAM).
//
// I/O failure never panics, at any path count. Every slot keeps a crc32
// of its last encoding, so a dropped or corrupted write is detected
// at read time; a path whose op errors (or, with SlowOpWall, stalls) is
// quarantined — its in-flight ops drain, no new ops are dispatched to it
// — and the affected bucket recovers bit-exactly from its DRAM replica,
// the state its record keeps outside the window. The recovered bucket
// re-enters the window modified, so its next eviction re-routes the
// record to a surviving path; with every path dead, modified buckets
// pin to the DRAM tier instead. All of it is logged as PathEvents, and
// the first path error stays latched for Err and Close.
//
// Locking: lane workers never take mu (the consumer can block issuing
// onto a full lane while holding mu, and that lane's worker is the
// drain); quarantine flags, the latched error, and the event log live
// under the small pathMu that workers and the consumer share.

// PathFile is the file-like surface one I/O path needs. *os.File
// implements it; the fault-injection harness wraps it to throttle,
// stall, drop, or error a chosen path at a chosen op count.
type PathFile = iolane.File

// MinResidentBuckets is the flash store's window floor: the bucket being
// stepped plus the one being prefetched.
const MinResidentBuckets = 2

// MLPStoreConfig parameterizes an MLPStore.
type MLPStoreConfig struct {
	// Dir is where the per-path backing files are created (default
	// os.TempDir()).
	Dir string
	// Paths is the per-path transfer-time model; len(Paths) is the path
	// count (default hw.NodeIOPaths(2)).
	Paths hw.IOPaths
	// ResidentBuckets caps the resident window (default and minimum
	// MinResidentBuckets).
	ResidentBuckets int
	// CacheBuckets caps the DRAM cache tier in front of flash (0
	// disables the cache).
	CacheBuckets int
	// ComputeTime models the overlappable CPU work of one bucket's Adam
	// step, in seconds (default: GraceAdam on the GH200 Grace CPU).
	ComputeTime func(elems int) float64
	// WrapPath, when non-nil, wraps each path's backing file before its
	// worker starts — the fault-injection hook.
	WrapPath func(path int, f PathFile) PathFile
	// SlowOpWall, when positive, bounds the real wall-clock wait on any
	// single fetch: a path whose op exceeds it is treated as stalled and
	// quarantined, and the bucket recovers from its DRAM replica. Zero
	// disables the watchdog.
	SlowOpWall time.Duration
	// Tracer, when non-nil, gives the store one trace track per path
	// (worker read/write spans) plus a store track carrying the
	// consumer-side prefetch/flush/stall/cache instants and the
	// degradation events (quarantine/reroute/recover/pin). Nil disables
	// tracing at zero cost.
	Tracer *obs.Tracer
	// TrackLabel prefixes the store's trace track names (default "mlp").
	TrackLabel string
}

// PathEvent records one degradation event in the multi-path store's
// lifetime, in occurrence order.
type PathEvent struct {
	// Path is the affected path index (-1 when no single path applies,
	// e.g. an all-paths-dead pin).
	Path int
	// Kind is "quarantine" (path taken out of service), "reroute" (a
	// record moved off a dead path), "recover" (a bucket restored from
	// its DRAM replica), or "pin" (a bucket pinned resident because no
	// live path remains).
	Kind string
	// Bucket is the affected bucket index (-1 when none applies).
	Bucket int
	// Detail is a human-readable cause.
	Detail string
}

// MLPTelemetry extends the flash-tier accounting with multi-path and
// cache-tier detail.
type MLPTelemetry struct {
	StoreTelemetry
	// CacheHits counts Acquires served by the DRAM cache tier (no flash
	// read, no stall).
	CacheHits int
	// PathReadSeconds/PathWriteSeconds are per-path modeled occupancy.
	PathReadSeconds  []float64
	PathWriteSeconds []float64
	// Events is the degradation log, in occurrence order.
	Events []PathEvent
}

// tier is where a record's state lives.
type tier uint8

const (
	onFlash  tier = iota // neither window nor cache: flash has the current version
	inWindow             // the resident window
	inCache              // the DRAM cache tier
)

// mlpRecord is one bucket in the store: its state, where that state
// lives, and its two fixed slots, present at the same offset in every
// path's backing file so the record can land on (or move to) any path
// without space management.
type mlpRecord struct {
	// st is the bucket's state, set by Seed and kept for the store's
	// lifetime. In the window it is what Acquire hands out; anywhere else
	// it is the next fetch's decode target, the recovery replica, and
	// where a verdict finds the previous version, and its current version
	// is the record's current slot (st.slot == slot).
	st       *BucketState
	tier     tier
	held     bool  // acquired and not yet released (window only)
	modified bool  // changed since it entered the window: flush on eviction
	pinned   bool  // no live path can hold it; never leaves the window
	use      int64 // LRU tick: the last window acquire or cache entry

	elems int
	off   int64      // slot 0's offset; slot 1 follows it
	bytes int64      // one slot: slotBytes(elems)
	slot  int        // slot holding the bucket's current version
	sums  [2]uint32  // crc32 of each slot's last encoding
	path  int        // path holding the current slot's bytes
	read  *iolane.Op // in-flight fetch, if any
	// buf is the record's reusable one-slot IO buffer. It is NOT
	// unconditionally safe to re-fill: write-behinds are never waited on,
	// the record's ops may sit on different paths' workers, and a DRAM
	// cache hit skips the read that would have waited out the previous
	// write-behind — so flushLocked surrenders the buffer to a still
	// in-flight op (tracked in pending) instead of encoding underneath
	// the worker. It is likewise dropped after a failed fetch: an op
	// abandoned to a stalled path still owns it. A fetch takes buf
	// without that check: it reads the slot and path the record's last
	// write went to, so its lane runs it only after that write, the
	// buffer's previous user.
	buf []byte
	// pending is the record's most recently enqueued op; nil or done
	// means buf is free to reuse (a done fetch implies its write is
	// done, by the lane's region rule).
	pending *iolane.Op
}

// ioBuf returns the record's lazily allocated IO buffer.
func (rec *mlpRecord) ioBuf() []byte {
	if rec.buf == nil {
		rec.buf = make([]byte, rec.bytes)
	}
	return rec.buf
}

// MLPStore implements BucketStore over N path files plus a DRAM cache
// tier. See the type comment for the degradation contract.
type MLPStore struct {
	cfg   MLPStoreConfig
	lanes []*iolane.Lane // one per path: its file, worker, device clock, trace track
	track *obs.Track     // store-level trace timeline (nil when tracing is off)
	wall  *time.Timer    // SlowOpWall watchdog, reused across Acquires

	// pathMu guards the quarantine flags, the latched first error, and
	// the event log — the only state workers share with the consumer.
	pathMu sync.Mutex
	dead   []bool
	ioErr  error
	events []PathEvent

	// mu guards everything below; path workers never take it.
	mu       sync.Mutex
	recs     map[int]*mlpRecord
	order    []int   // seeded indices, ascending: the prefetch cycle
	end      int64   // next free record offset (same layout on every path)
	count    [3]int  // records per tier
	inflight int     // fetches in flight, counted against the window
	tick     int64   // LRU clock
	cpu      float64 // virtual consumer clock
	tel      MLPTelemetry
	closed   bool
}

// NewMLPStore creates the per-path backing files and starts one IO
// worker per path.
func NewMLPStore(cfg MLPStoreConfig) (*MLPStore, error) {
	if len(cfg.Paths) == 0 {
		cfg.Paths = hw.NodeIOPaths(2)
	}
	cfg.ResidentBuckets = max(cfg.ResidentBuckets, MinResidentBuckets)
	if cfg.ComputeTime == nil {
		chip := hw.GH200()
		cfg.ComputeTime = func(elems int) float64 {
			return hw.AdamStepTime(chip, hw.AdamGrace, int64(elems))
		}
	}
	n := len(cfg.Paths)
	s := &MLPStore{
		cfg:  cfg,
		dead: make([]bool, n),
		recs: map[int]*mlpRecord{},
	}
	s.tel.PathReadSeconds = make([]float64, n)
	s.tel.PathWriteSeconds = make([]float64, n)
	label := cfg.TrackLabel
	if label == "" {
		label = "mlp"
	}
	s.track = cfg.Tracer.Track(label)
	for i := 0; i < n; i++ {
		var wrap func(iolane.File) iolane.File
		if cfg.WrapPath != nil {
			wrap = func(f iolane.File) iolane.File { return cfg.WrapPath(i, f) }
		}
		lane, err := iolane.Open(cfg.Dir, fmt.Sprintf("superoffload-mlp-p%d-*.bin", i),
			cfg.Tracer.Track(fmt.Sprintf("%s path %d", label, i)), wrap,
			func(op *iolane.Op) { s.checkOp(i, op) })
		if err != nil {
			for _, l := range s.lanes {
				_ = l.Close() // nothing was issued; the create error is the one to report
			}
			return nil, fmt.Errorf("stv: creating flash path %d backing file: %w", i, err)
		}
		s.lanes = append(s.lanes, lane)
	}
	return s, nil
}

// Telemetry returns a snapshot of the modeled-time, cache, and
// degradation counters.
func (s *MLPStore) Telemetry() MLPTelemetry {
	s.mu.Lock()
	t := s.tel
	t.PathReadSeconds = append([]float64(nil), s.tel.PathReadSeconds...)
	t.PathWriteSeconds = append([]float64(nil), s.tel.PathWriteSeconds...)
	s.mu.Unlock()
	s.pathMu.Lock()
	t.Events = append([]PathEvent(nil), s.events...)
	s.pathMu.Unlock()
	return t
}

// NVMeTelemetry implements TelemetrySource with the flash-tier share of
// the accounting.
func (s *MLPStore) NVMeTelemetry() (StoreTelemetry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tel.StoreTelemetry, true
}

// Err returns the first latched path error. A non-nil value is not
// fatal — it records that the store degraded (quarantined a path and
// re-routed or pinned its records) while training continued bit-exactly.
// Close reports it too.
func (s *MLPStore) Err() error {
	s.pathMu.Lock()
	defer s.pathMu.Unlock()
	return s.ioErr
}

// checkOp is path i's lane after-hook, run on the lane's worker: it
// verifies a read's checksum, so a dropped or corrupted write surfaces
// as the fetch error that triggers DRAM recovery, and quarantines the
// path on any failing op.
func (s *MLPStore) checkOp(i int, op *iolane.Op) {
	if !op.Write && op.Err == nil && crc32.ChecksumIEEE(op.Buf) != op.Sum {
		op.Err = fmt.Errorf("stv: bucket %d record checksum mismatch on path %d", op.Tag, i)
	}
	if op.Err != nil {
		s.quarantine(i, int(op.Tag), op.Err.Error())
	}
}

// quarantine takes path i out of service and latches the first error.
// Callable from workers and the consumer: only pathMu is taken.
func (s *MLPStore) quarantine(i, bucket int, detail string) {
	s.pathMu.Lock()
	defer s.pathMu.Unlock()
	if s.ioErr == nil {
		s.ioErr = fmt.Errorf("stv: flash store path %d failed: %s", i, detail)
	}
	if s.dead[i] {
		return
	}
	s.dead[i] = true
	s.events = append(s.events, PathEvent{Path: i, Kind: "quarantine", Bucket: bucket, Detail: detail})
	s.track.InstantInt("quarantine", "path", i)
}

// event appends to the degradation log.
func (s *MLPStore) event(e PathEvent) {
	s.pathMu.Lock()
	s.events = append(s.events, e)
	s.pathMu.Unlock()
	s.track.InstantInt(e.Kind, "bucket", e.Bucket)
}

// pathDead reports whether path i is quarantined.
func (s *MLPStore) pathDead(i int) bool {
	s.pathMu.Lock()
	defer s.pathMu.Unlock()
	return s.dead[i]
}

// pickPathLocked returns the live path with the lowest device clock
// (ties to the lowest index, so dispatch is deterministic); ok is false
// when every path is quarantined. avoid names a lane to steer clear of
// when any other lane is live (-1 steers nothing): a write-behind flush
// dispatched onto the lane an imminent fetch needs would serialize
// behind it — exactly the single-lane contention the path split exists
// to break — so evictions avoid the fetch's home lane.
func (s *MLPStore) pickPathLocked(avoid int) (int, bool) {
	s.pathMu.Lock()
	defer s.pathMu.Unlock()
	best, ok := -1, false
	for i, d := range s.dead {
		if d || i == avoid {
			continue
		}
		if !ok || s.lanes[i].Clock() < s.lanes[best].Clock() {
			best, ok = i, true
		}
	}
	if !ok && avoid >= 0 && avoid < len(s.dead) && !s.dead[avoid] {
		return avoid, true
	}
	return best, ok
}

// enqueueLocked schedules one IO on the given path, advancing that
// path's modeled device timeline when modeled is true (Seed's one-time
// bootstrap writes pass false: they are real file IO but not
// steady-state traffic, so they must not inflate the per-step telemetry
// the reporters divide by step count).
func (s *MLPStore) enqueueLocked(write bool, rec *mlpRecord, idx int, buf []byte, path int, modeled bool) *iolane.Op {
	op := &iolane.Op{Off: rec.off + int64(rec.slot)*rec.bytes, Buf: buf, Write: write, Tag: int32(idx), Sum: rec.sums[rec.slot]}
	var now, dur float64
	if modeled {
		spec := s.cfg.Paths[path]
		now = s.cpu
		if write {
			dur = spec.WriteTime(rec.bytes)
			s.tel.Writes++
			s.tel.BytesWritten += rec.bytes
			s.tel.WriteSeconds += dur
			s.tel.PathWriteSeconds[path] += dur
		} else {
			dur = spec.ReadTime(rec.bytes)
			s.tel.Reads++
			s.tel.BytesRead += rec.bytes
			s.tel.ReadSeconds += dur
			s.tel.PathReadSeconds[path] += dur
		}
	}
	rec.pending = op
	s.lanes[path].Issue(op, now, dur)
	return op
}

// flushLocked encodes the record's state's current version into its slot,
// makes that slot the record's current one, refreshes its checksum, and
// enqueues the write to the given path, recording a reroute event when
// the record is moving off a quarantined path.
func (s *MLPStore) flushLocked(rec *mlpRecord, idx int, path int, modeled bool) {
	// The record's previous op may still be in flight on another path's
	// worker (a cache hit skips the read that would have waited it out),
	// and write-behinds are never waited on — surrender the buffer to it
	// rather than encoding underneath a concurrent WriteAt.
	if rec.pending != nil {
		select {
		case <-rec.pending.Done:
		default:
			rec.buf = nil
		}
		rec.pending = nil
	}
	buf := encodeSlot(rec.ioBuf(), rec.st.Shard)
	rec.slot = rec.st.slot
	rec.sums[rec.slot] = crc32.ChecksumIEEE(buf)
	if path != rec.path && s.pathDead(rec.path) {
		s.event(PathEvent{Path: rec.path, Kind: "reroute", Bucket: idx,
			Detail: fmt.Sprintf("record moved to path %d", path)})
	}
	rec.path = path
	if modeled {
		s.track.InstantInt("flush", "bucket", idx)
	}
	s.enqueueLocked(true, rec, idx, buf, path, modeled)
}

// Seed gives bucket idx a record that owns its initial state and writes
// that state to slot 0 (round-robin path placement); the record starts
// on flash, outside the window.
func (s *MLPStore) Seed(idx int, master []float32) {
	st := &BucketState{Shard: optim.NewMixedShard(master)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recs[idx]; ok {
		panic(fmt.Sprintf("stv: bucket %d seeded twice", idx))
	}
	rec := &mlpRecord{st: st, elems: len(master), off: s.end, bytes: slotBytes(len(master))}
	s.recs[idx] = rec
	s.count[onFlash]++
	s.end += 2 * rec.bytes
	i := sort.SearchInts(s.order, idx)
	s.order = append(s.order, 0)
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = idx
	buf := encodeSlot(rec.ioBuf(), st.Shard)
	rec.sums[0] = crc32.ChecksumIEEE(buf)
	rec.path = idx % len(s.cfg.Paths)
	s.enqueueLocked(true, rec, idx, buf, rec.path, false)
}

// next returns the index after idx in the seeded cycle.
func (s *MLPStore) next(idx int) int {
	i := sort.SearchInts(s.order, idx) + 1
	if i >= len(s.order) {
		i = 0
	}
	return s.order[i]
}

// moveLocked puts rec's state in tier t.
func (s *MLPStore) moveLocked(rec *mlpRecord, t tier) {
	s.count[rec.tier]--
	s.count[t]++
	rec.tier = t
}

// lruLocked returns the least-recently-used record in tier t that is
// neither held nor pinned, or -1 when there is none. Ticks are unique,
// so the victim does not depend on the walk.
func (s *MLPStore) lruLocked(t tier) int {
	victim, oldest := -1, int64(math.MaxInt64)
	for _, idx := range s.order {
		if r := s.recs[idx]; r.tier == t && !r.held && !r.pinned && r.use < oldest {
			victim, oldest = idx, r.use
		}
	}
	return victim
}

// evictLocked frees one window slot: the least-recently-used unheld,
// unpinned resident bucket. Modified state write-behind flushes to the
// least-loaded live path that is not avoid (the imminent fetch's home
// lane — see pickPathLocked); the record then drops to the DRAM cache
// tier, evicting the cache's LRU record to flash when it is full, or
// straight to flash when there is no cache. When every path is dead a
// modified bucket has nowhere durable to go — it is pinned to the DRAM
// tier instead and the search continues. Reports whether a slot was
// freed.
func (s *MLPStore) evictLocked(avoid int) bool {
	for {
		victim := s.lruLocked(inWindow)
		if victim < 0 {
			return false
		}
		rec := s.recs[victim]
		if rec.modified {
			path, ok := s.pickPathLocked(avoid)
			if !ok {
				rec.pinned = true
				s.event(PathEvent{Path: -1, Kind: "pin", Bucket: victim,
					Detail: "all paths quarantined; bucket pinned to DRAM tier"})
				continue
			}
			s.flushLocked(rec, victim, path, true)
		}
		to := onFlash
		if s.cfg.CacheBuckets > 0 {
			for s.count[inCache] >= s.cfg.CacheBuckets {
				s.moveLocked(s.recs[s.lruLocked(inCache)], onFlash)
			}
			to = inCache
		}
		s.moveLocked(rec, to)
		s.tick++
		rec.use = s.tick
		return true
	}
}

// prefetchLocked starts an async fetch of idx if a window slot is free.
// Only records on flash are fetched, and not from a dead path: those
// recover from DRAM at Acquire.
func (s *MLPStore) prefetchLocked(idx int) {
	rec := s.recs[idx]
	if rec.tier != onFlash || rec.read != nil || s.pathDead(rec.path) {
		return
	}
	if s.count[inWindow]+s.inflight >= s.cfg.ResidentBuckets && !s.evictLocked(rec.path) {
		return
	}
	s.track.InstantInt("prefetch", "bucket", idx)
	rec.read = s.enqueueLocked(false, rec, idx, rec.ioBuf(), rec.path, true)
	s.inflight++
}

// insertLocked brings bucket idx into the window, evicting to make room,
// and holds it.
func (s *MLPStore) insertLocked(idx int, rec *mlpRecord, modified bool) {
	avoid := -1
	if len(s.order) > 1 {
		avoid = s.recs[s.next(idx)].path
	}
	for s.count[inWindow] >= s.cfg.ResidentBuckets && s.evictLocked(avoid) {
	}
	s.moveLocked(rec, inWindow)
	rec.modified = modified
	s.holdLocked(idx, rec)
}

// holdLocked marks window bucket idx held and most recently used, and
// prefetches the next bucket in the cycle.
func (s *MLPStore) holdLocked(idx int, rec *mlpRecord) {
	rec.held = true
	s.tick++
	rec.use = s.tick
	if len(s.order) > 1 {
		s.prefetchLocked(s.next(idx))
	}
}

// recoverLocked restores bucket idx from its DRAM replica after a
// failed or abandoned fetch — the graceful-degradation path. The
// recovered state enters the window modified, so the next eviction
// re-flushes (and thereby re-routes) the record to a surviving path.
func (s *MLPStore) recoverLocked(idx int, rec *mlpRecord, detail string) {
	s.event(PathEvent{Path: rec.path, Kind: "recover", Bucket: idx, Detail: detail})
	s.insertLocked(idx, rec, true)
}

// Acquire makes bucket idx resident and returns its state: from the
// window, the DRAM cache tier, or a (prefetched) flash fetch — falling
// back to the DRAM replica when the fetch's path has failed.
func (s *MLPStore) Acquire(idx int) *BucketState {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic(fmt.Sprintf("stv: acquire of bucket %d after Close", idx))
	}
	rec, ok := s.recs[idx]
	if !ok {
		s.mu.Unlock()
		panic(fmt.Sprintf("stv: acquire of unseeded bucket %d", idx))
	}
	st := rec.st
	switch rec.tier {
	case inWindow:
		s.holdLocked(idx, rec)
		s.mu.Unlock()
		return st
	case inCache:
		// DRAM cache hit: promote to the window with no flash traffic
		// and no stall. The flash copy still matches (the state was
		// flushed on window eviction), so the entry re-enters clean. It
		// leaves the cache first, so the window's eviction finds room.
		s.moveLocked(rec, onFlash)
		s.tel.CacheHits++
		s.track.InstantInt("cacheHit", "bucket", idx)
		s.insertLocked(idx, rec, false)
		s.mu.Unlock()
		return st
	}
	op := rec.read
	if op == nil {
		if s.pathDead(rec.path) {
			// The record's bytes live on a quarantined path: skip flash
			// and restore from the DRAM replica.
			s.recoverLocked(idx, rec, "record on quarantined path")
			s.mu.Unlock()
			return st
		}
		// Cold fetch: make room first so the read doesn't overshoot the
		// window, then enqueue.
		for s.count[inWindow]+s.inflight >= s.cfg.ResidentBuckets && s.evictLocked(rec.path) {
		}
		op = s.enqueueLocked(false, rec, idx, rec.ioBuf(), rec.path, true)
		rec.read = op
		s.inflight++
	}
	if op.DoneAt > s.cpu {
		s.tel.StallSeconds += op.DoneAt - s.cpu
		s.cpu = op.DoneAt
		s.track.InstantInt("stall", "bucket", idx)
	}
	path := rec.path // the fetch's lane: a record with a read in flight is not re-routed
	s.mu.Unlock()

	failed := "" // why the fetch failed, if it did
	if s.cfg.SlowOpWall > 0 {
		if s.wall == nil {
			s.wall = time.NewTimer(s.cfg.SlowOpWall)
		} else {
			s.wall.Reset(s.cfg.SlowOpWall)
		}
		select {
		case <-op.Done:
			s.wall.Stop()
		case <-s.wall.C:
			// The path is stalled (throttled or hung). Quarantine it and
			// abandon the op; its eventual completion is ignored.
			s.quarantine(path, idx, fmt.Sprintf("fetch exceeded SlowOpWall %s", s.cfg.SlowOpWall))
			failed = "fetch abandoned after stall"
		}
	} else {
		<-op.Done
	}
	if failed == "" && op.Err != nil {
		failed = op.Err.Error() // the worker already quarantined the path
	}
	if failed == "" {
		derr := decodeSlot(st.Shard, rec.elems, op.Buf) // a rejected decode leaves st as it was
		if derr != nil {
			// Checksum passed but the codec rejected the bytes — treat
			// the path as corrupting data.
			s.quarantine(path, idx, derr.Error())
			failed = derr.Error()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.read = nil
	s.inflight--
	if failed == "" {
		s.insertLocked(idx, rec, false)
		return st
	}
	rec.buf = nil
	s.recoverLocked(idx, rec, failed)
	return st
}

// Release ends a hold. A mutating release (Flush or Step) marks the
// bucket for write-back on eviction; a Step release also advances the
// consumer clock by the bucket's modeled Adam step — the compute the
// device timelines get to hide. Checkpoint loads and skip rollbacks use
// Flush, so they never charge phantom optimizer compute.
func (s *MLPStore) Release(idx int, mode ReleaseMode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[idx]
	if !ok || !rec.held {
		panic(fmt.Sprintf("stv: release of unheld bucket %d", idx))
	}
	rec.held = false
	if mode != ReleaseClean {
		rec.modified = true
	}
	if mode == ReleaseStep {
		c := s.cfg.ComputeTime(rec.elems)
		s.cpu += c
		s.tel.ComputeSeconds += c
	}
}

// Close drains every path worker, deletes the backing files, and
// reports the first latched path error — degradation events included,
// so a run that quarantined a path and completed anyway still tells the
// caller the hardware failed underneath it.
func (s *MLPStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var err error
	for _, l := range s.lanes {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	// The store's latch names the path that failed; with every worker
	// drained it is final, and outranks a lane's raw error.
	if lerr := s.Err(); lerr != nil {
		err = lerr
	}
	return err
}
