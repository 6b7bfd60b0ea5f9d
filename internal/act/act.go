// Package act is the activation offloading tier: an SSDTrain-style
// store that spills each transformer layer's forward activations out of
// the resident replica as the forward pass's write-behind window slides
// past them, and prefetches them back ahead of the backward pass with
// async double buffering (at most two reads in flight).
//
// Two backing tiers share one store: a DRAM cache (host memory over the
// modeled C2C link) and a file-backed NVMe tier (real file IO, modeled
// flash rates). Both issue transfers onto an iolane.Lane, as
// stv.MLPStore's flash paths do (the DRAM tier's is virtual), so
// telemetry reports the same pipelined-vs-serialized contrast:
// PipelinedSeconds is compute plus
// the prefetch stalls the double buffer could not hide, SerializedSeconds
// is what a blocking store would have cost.
//
// Spilling is numerically invisible. Restores copy back the exact bytes
// spilled (float32 end to end, no recompute, no rounding), and spilled
// buffers are poisoned with NaN until their fetch so that any read of a
// non-resident activation corrupts the loss loudly instead of silently.
package act

import (
	"fmt"
	"math"
	"sync"

	"superoffload/internal/hw"
	"superoffload/internal/iolane"
	"superoffload/internal/obs"
)

// Tier selects the spill destination.
type Tier int

const (
	// DRAM spills into a host-memory cache over the C2C link.
	DRAM Tier = iota
	// NVMe spills into a backing file at modeled flash rates.
	NVMe
)

// String names the tier the way the facade's -act-offload flag spells it.
func (t Tier) String() string {
	if t == NVMe {
		return "nvme"
	}
	return "dram"
}

// Config parameterizes a Store.
type Config struct {
	// Tier is the backing tier (DRAM cache or file-backed NVMe).
	Tier Tier
	// Dir is the NVMe tier's backing directory (empty: the OS temp dir).
	// Ignored by the DRAM tier.
	Dir string
	// ResidentLayers is the write-behind window W: the W most recent
	// forward layers stay resident, everything older spills. Values below
	// hw.ActMinResidentLayers are raised to it.
	ResidentLayers int
	// Hidden and Params describe the replica whose forward/backward feed
	// the compute clock.
	Hidden int
	Params int64
	// Tracer, when non-nil, gives the store a trace track carrying the
	// worker's wall-clock IO spans and the consumer-side
	// spill/prefetch/stall instants. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// TrackLabel names the store's trace track (default "act").
	TrackLabel string
}

// Telemetry is the store's cumulative modeled-time and traffic
// accounting. Seconds are virtual (hw-throttled), never wall clock;
// multi-rank engines sum per-rank figures.
type Telemetry struct {
	// Passes counts forward passes begun (redo passes included).
	Passes int
	// Spills and Fetches count layer writes and reads; BytesSpilled and
	// BytesFetched their traffic.
	Spills       int
	Fetches      int
	BytesSpilled int64
	BytesFetched int64
	// WriteSeconds and ReadSeconds are modeled tier-transfer times.
	WriteSeconds float64
	ReadSeconds  float64
	// StallSeconds is prefetch time the double buffer could not hide:
	// the backward sat idle waiting for a layer's read to land.
	StallSeconds float64
	// ComputeSeconds is modeled forward plus backward time observed at
	// the layer boundaries (the final layer's backward has no subsequent
	// boundary, so backward contributes (L-1)/L of its total).
	ComputeSeconds float64
}

// PipelinedSeconds is the modeled wall time with the store's async
// engine overlapping compute: compute plus unhidden stalls.
func (t Telemetry) PipelinedSeconds() float64 { return t.ComputeSeconds + t.StallSeconds }

// SerializedSeconds is the blocking-store reference: compute plus every
// transfer end to end.
func (t Telemetry) SerializedSeconds() float64 {
	return t.ComputeSeconds + t.WriteSeconds + t.ReadSeconds
}

// Add accumulates another store's telemetry (per-rank stores of a
// multi-rank engine sum into one figure; Passes, equal across ranks,
// take the max).
func (t Telemetry) Add(o Telemetry) Telemetry {
	return Telemetry{
		Passes:         max(t.Passes, o.Passes),
		Spills:         t.Spills + o.Spills,
		Fetches:        t.Fetches + o.Fetches,
		BytesSpilled:   t.BytesSpilled + o.BytesSpilled,
		BytesFetched:   t.BytesFetched + o.BytesFetched,
		WriteSeconds:   t.WriteSeconds + o.WriteSeconds,
		ReadSeconds:    t.ReadSeconds + o.ReadSeconds,
		StallSeconds:   t.StallSeconds + o.StallSeconds,
		ComputeSeconds: t.ComputeSeconds + o.ComputeSeconds,
	}
}

// layerState tracks one forward layer within the current pass.
type layerState struct {
	bufs     [][]float32
	bytes    int64
	spilled  bool
	restored bool
	read     *iolane.Op
}

// record is a layer index's backing slot, reused across passes: a file
// region + IO buffer on the NVMe tier, a host slice on the DRAM tier.
// last is the newest op touching the slot; spills wait it out before
// re-encoding so a pass abandoned mid-flight (an STV redo) can never
// race the worker.
type record struct {
	off  int64
	cap  int64
	buf  []byte
	host []float32
	last *iolane.Op
}

// Store spills per-layer forward activations behind a resident window
// and prefetches them ahead of backward. It implements nn.ActivationTap.
// Its methods are called one call at a time, in protocol order, from
// whichever of the holder's pass lanes completes the layer (nn's
// tapMux); the only other concurrency is the IO lane's worker, which
// never takes the mutex.
type Store struct {
	cfg Config
	// spec is the hardware model charging the virtual clocks: the paper's
	// platform.
	spec hw.SuperchipSpec
	// lane carries every transfer: file-backed on the NVMe tier, virtual
	// on the DRAM tier (the host copy is synchronous: an op is complete
	// at issue and only the device clock is charged).
	lane *iolane.Lane
	// track carries the consumer's instants and the lane's spans.
	track *obs.Track

	mu       sync.Mutex
	closed   bool
	layers   []*layerState
	recs     map[int]*record
	end      int64
	begun    bool
	bwd      bool
	next     int // next spilled layer to prefetch (descending)
	inflight int
	layerFwd float64
	layerBwd float64
	cpu      float64 // virtual consumer clock; the lane holds the device clock
	tel      Telemetry
}

// NewStore opens a store. The NVMe tier creates its backing file
// immediately so configuration errors surface at setup, not mid-step.
func NewStore(cfg Config) (*Store, error) { return newStore(cfg, nil) }

// newStore is NewStore with the NVMe lane's file wrap exposed — the
// fault-injection hook of the package's tests.
func newStore(cfg Config, wrap func(iolane.File) iolane.File) (*Store, error) {
	// The depth is not known until the first pass stashes its layers, so
	// only the floor of hw.ActWindow applies here; a window past the depth
	// simply never spills.
	cfg.ResidentLayers = max(cfg.ResidentLayers, hw.ActMinResidentLayers)
	label := cfg.TrackLabel
	if label == "" {
		label = "act"
	}
	s := &Store{
		cfg:   cfg,
		spec:  hw.DefaultSuperchip(),
		lane:  iolane.Virtual(),
		track: cfg.Tracer.Track(label),
		recs:  make(map[int]*record),
	}
	if cfg.Tier == NVMe {
		lane, err := iolane.Open(cfg.Dir, "superoffload-act-*.dat", s.track, wrap, nil)
		if err != nil {
			return nil, fmt.Errorf("act: create backing file: %w", err)
		}
		s.lane = lane
	}
	return s, nil
}

// checkIOErr surfaces the lane's latched IO error at the next store call
// rather than letting the pass read back bytes the file never held.
func (s *Store) checkIOErr() {
	if err := s.lane.Err(); err != nil {
		panic(fmt.Sprintf("act: backing IO failed: %v", err))
	}
}

// Resident returns the effective write-behind window W.
func (s *Store) Resident() int { return s.cfg.ResidentLayers }

// OnNVMe reports whether the store spills to the flash tier.
func (s *Store) OnNVMe() bool { return s.cfg.Tier == NVMe }

// Path returns the NVMe tier's backing file path ("" for DRAM).
func (s *Store) Path() string { return s.lane.Path() }

// BeginPass starts a forward pass over the given depth and local shape
// (tokens is this holder's batch rows × positions; seq the attention
// span feeding the GEMM model). Any previous pass's state is dropped —
// an STV redo abandons its half-spilled pass simply by beginning the
// next one; in-flight ops from it are fenced by each record's last op.
func (s *Store) BeginPass(layers, tokens, seq int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic("act: begin pass after Close")
	}
	s.checkIOErr()
	s.layers = make([]*layerState, 0, layers)
	s.begun, s.bwd = true, false
	s.inflight, s.next = 0, -1
	bwd := s.spec.BackwardTime(s.cfg.Params, tokens, s.cfg.Hidden, seq)
	s.layerBwd = bwd / float64(max(layers, 1))
	s.layerFwd = s.layerBwd / 2
	s.tel.Passes++
}

// StashLayer hands the store layer l's forward activation buffers, in
// forward order. The slices alias the model's caches: once the window
// slides past the layer, the store copies them to the backing tier,
// poisons the originals with NaN, and restores them in FetchLayer.
func (s *Store) StashLayer(l int, bufs [][]float32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic(fmt.Sprintf("act: stash of layer %d after Close", l))
	}
	s.checkIOErr()
	if !s.begun || l != len(s.layers) {
		panic(fmt.Sprintf("act: stash of layer %d out of order (have %d, begun=%v)", l, len(s.layers), s.begun))
	}
	var bytes int64
	for _, b := range bufs {
		bytes += 4 * int64(len(b))
	}
	s.layers = append(s.layers, &layerState{bufs: bufs, bytes: bytes})
	s.cpu += s.layerFwd
	s.tel.ComputeSeconds += s.layerFwd
	if spill := l - s.cfg.ResidentLayers; spill >= 0 {
		s.spillLocked(spill)
	}
}

// spillLocked writes layer l to the backing tier and poisons its
// buffers. The encode (NVMe) or host copy (DRAM) happens here, under
// the mutex and after fencing the record's previous op, so the worker
// only ever touches bytes no one else is writing.
func (s *Store) spillLocked(l int) {
	ls := s.layers[l]
	rec := s.recs[l]
	if rec == nil {
		rec = &record{off: -1}
		s.recs[l] = rec
	}
	if rec.last != nil {
		<-rec.last.Done
		rec.last = nil
	}
	if s.cfg.Tier == NVMe {
		if rec.cap < ls.bytes {
			rec.off, rec.cap = s.end, ls.bytes
			rec.buf = make([]byte, ls.bytes)
			s.end += ls.bytes
		}
		dst := rec.buf
		for _, b := range ls.bufs {
			dst = iolane.PutFloat32s(dst, b)
		}
	} else {
		if rec.cap < ls.bytes {
			rec.cap = ls.bytes
			rec.host = make([]float32, ls.bytes/4)
		}
		n := 0
		for _, b := range ls.bufs {
			n += copy(rec.host[n:], b)
		}
	}
	dur := s.writeTime(ls.bytes)
	s.issueLocked(rec, ls.bytes, true, dur)
	poison(ls.bufs)
	ls.spilled = true
	s.tel.Spills++
	s.tel.BytesSpilled += ls.bytes
	s.tel.WriteSeconds += dur
	s.track.InstantInt("spill", "layer", l)
}

// FetchLayer blocks until layer l's activations are back in their
// original buffers, issuing depth-2 prefetches for the layers backward
// will need next. Call it for every layer, resident or not, at the top
// of its backward step (descending order): resident layers only charge
// the compute clock that paces the prefetcher.
func (s *Store) FetchLayer(l int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic(fmt.Sprintf("act: fetch of layer %d after Close", l))
	}
	s.checkIOErr()
	if !s.begun || l < 0 || l >= len(s.layers) {
		panic(fmt.Sprintf("act: fetch of layer %d outside pass of %d layers", l, len(s.layers)))
	}
	if !s.bwd {
		// Backward begins at the top layer; prefetch walks the spilled
		// ones down from the highest.
		s.bwd = true
		s.next = len(s.layers) - s.cfg.ResidentLayers - 1
	} else {
		// The layer above this one just ran its backward.
		s.cpu += s.layerBwd
		s.tel.ComputeSeconds += s.layerBwd
	}
	s.topUpLocked()
	ls := s.layers[l]
	if !ls.spilled || ls.restored {
		return
	}
	if ls.read == nil {
		// Prefetch missed it (out-of-window fetch order); read it now.
		s.issueReadLocked(l)
	}
	o := ls.read
	if o.DoneAt > s.cpu {
		s.tel.StallSeconds += o.DoneAt - s.cpu
		s.cpu = o.DoneAt
		s.track.InstantInt("stall", "layer", l)
	}
	s.mu.Unlock()
	<-o.Done
	s.mu.Lock()
	s.checkIOErr()
	rec := s.recs[l]
	if s.cfg.Tier == NVMe {
		src := rec.buf
		for _, b := range ls.bufs {
			src = iolane.Float32s(b, src)
		}
	} else {
		n := 0
		for _, b := range ls.bufs {
			n += copy(b, rec.host[n:n+len(b)])
		}
	}
	ls.restored = true
	ls.read = nil
	s.inflight--
	s.topUpLocked()
}

// topUpLocked keeps up to two prefetch reads in flight, walking the
// spilled layers in the order backward consumes them.
func (s *Store) topUpLocked() {
	for s.inflight < 2 && s.next >= 0 {
		if ls := s.layers[s.next]; ls.spilled && !ls.restored && ls.read == nil {
			s.issueReadLocked(s.next)
		}
		s.next--
	}
}

// issueReadLocked enqueues layer l's fetch. The read covers the region
// the layer's spill wrote, and the lane runs a read only after every
// overlapping write issued before it, so the spill lands first; the read
// fills the record's own buffer, which no later spill re-encodes before
// fencing on rec.last — and rec.last done means every earlier op on the
// record is done, since the read waited for the spill.
func (s *Store) issueReadLocked(l int) {
	ls := s.layers[l]
	rec := s.recs[l]
	dur := s.readTime(ls.bytes)
	ls.read = s.issueLocked(rec, ls.bytes, false, dur)
	s.inflight++
	s.tel.Fetches++
	s.tel.BytesFetched += ls.bytes
	s.tel.ReadSeconds += dur
	s.track.InstantInt("prefetch", "layer", l)
}

// issueLocked puts one transfer of the record on the lane as its newest
// op, charging dur of modeled device time behind the consumer clock.
func (s *Store) issueLocked(rec *record, bytes int64, write bool, dur float64) *iolane.Op {
	o := &iolane.Op{Off: rec.off, Write: write}
	if s.cfg.Tier == NVMe {
		o.Buf = rec.buf[:bytes]
	}
	s.lane.Issue(o, s.cpu, dur)
	rec.last = o
	return o
}

func (s *Store) writeTime(bytes int64) float64 {
	if s.cfg.Tier == NVMe {
		return s.spec.NVMe.WriteTime(bytes)
	}
	return s.spec.Chip.Link.TransferTime(bytes, hw.DeviceToHost, hw.Pinned)
}

func (s *Store) readTime(bytes int64) float64 {
	if s.cfg.Tier == NVMe {
		return s.spec.NVMe.ReadTime(bytes)
	}
	return s.spec.Chip.Link.TransferTime(bytes, hw.HostToDevice, hw.Pinned)
}

// Telemetry snapshots the cumulative counters.
func (s *Store) Telemetry() Telemetry {
	if s == nil {
		return Telemetry{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tel
}

// Close waits out every in-flight op, then deletes the NVMe backing
// file. Idempotent; any further store call panics with a clear message.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.lane.Close()
}

// actPoison is the NaN spilled buffers hold until their fetch: any use
// of a non-resident activation poisons the loss instead of silently
// training on stale data.
var actPoison = math.Float32frombits(0x7fc0dead)

func poison(bufs [][]float32) {
	for _, b := range bufs {
		for i := range b {
			b[i] = actPoison
		}
	}
}
