// Package iolane is the one background I/O lane the offload tiers share:
// a backing file, one worker goroutine that serves queued reads before
// queued writes, one latched first error and one virtual device clock.
// stv.MLPStore runs a lane per flash path and act.Store one for its
// spill file.
//
// A lane has a single consumer: Issue, Clock and Close are called from
// the owning store's goroutine, under its lock; only Err is safe from
// any goroutine. The worker takes no lock of the owner's — the consumer
// may block in Issue on a full queue while holding its own, and the
// worker is the drain.
package iolane

import (
	"encoding/binary"
	"math"
	"os"
	"sync"
	"unsafe"

	"superoffload/internal/obs"
)

// File is the file-like surface a lane needs. *os.File implements it;
// fault-injection harnesses wrap it to throttle, stall, drop or error
// the lane's I/O.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Close() error
}

// Op is one queued transfer: the owner fills Off, Buf and Write and hands
// it to Issue; Buf belongs to the worker until Done closes.
type Op struct {
	Off   int64
	Buf   []byte
	Write bool
	// Tag and Sum are the owner's, for its after-hook (a record index and
	// an expected checksum); the lane never looks at them. 32 bits each
	// keeps an Op, allocated per transfer, in the 80-byte size class.
	Tag int32
	Sum uint32
	// DoneAt is the completion time on the lane's device clock, stamped
	// by Issue; Err is set before Done closes.
	DoneAt float64
	Err    error
	Done   chan struct{}
}

// Lane is one I/O worker over one backing file. Its consistency rule is
// per region: a read issued after a write of overlapping bytes sees the
// written bytes. Within that rule the worker serves reads first, so a
// fetch the consumer is about to wait on overtakes queued write-behinds
// of other regions, and the writes fill the lane's idle time. Writes run
// in issue order among themselves, and a write never overtakes a read
// issued before it.
type Lane struct {
	file  File // nil on a virtual lane, which has no worker
	path  string
	wg    sync.WaitGroup
	track *obs.Track
	after func(*Op)
	clock float64

	mu      sync.Mutex
	queued  sync.Cond // an op was queued, or the lane is closing
	room    sync.Cond // the worker took an op off a full queue
	queue   []*Op     // issued, not yet taken, in issue order; cap queueDepth
	closing bool
	err     error
}

// queueDepth bounds a lane's queue: 64 deep so a seed sweep or a forward
// pass's spills rarely wait on real file I/O; a full queue only blocks
// the consumer until the worker drains it.
const queueDepth = 64

// Open creates the lane's backing file in dir (empty: the OS temp dir)
// from the os.CreateTemp pattern and starts the worker. track receives a
// "read"/"write" span per op; wrap, when non-nil, wraps the file first
// (the fault-injection hook); after, when non-nil, runs on the worker
// between an op's I/O and its Done: it may fail the op by setting Err or
// react to a failed one, and must not take a lock held across Issue.
func Open(dir, pattern string, track *obs.Track, wrap func(File) File, after func(*Op)) (*Lane, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	l := &Lane{file: f, path: f.Name(), queue: make([]*Op, 0, queueDepth), track: track, after: after}
	l.queued.L, l.room.L = &l.mu, &l.mu
	if wrap != nil {
		l.file = wrap(f)
	}
	l.wg.Add(1)
	go l.worker()
	return l, nil
}

// Virtual returns a lane with no file and no goroutine, for a tier whose
// transfer is a synchronous copy the owner has already made: Issue
// stamps the device clock and completes the op on the spot.
func Virtual() *Lane { return &Lane{} }

// worker runs ops in take's order until the lane closes and its queue
// is empty, latching the first failure.
func (l *Lane) worker() {
	defer l.wg.Done()
	for op := l.take(); op != nil; op = l.take() {
		if op.Write {
			sp := l.track.Begin("write")
			_, op.Err = l.file.WriteAt(op.Buf, op.Off)
			sp.EndInt("bytes", len(op.Buf))
		} else {
			sp := l.track.Begin("read")
			_, op.Err = l.file.ReadAt(op.Buf, op.Off)
			sp.EndInt("bytes", len(op.Buf))
		}
		if l.after != nil {
			l.after(op)
		}
		if op.Err != nil {
			l.mu.Lock()
			if l.err == nil {
				l.err = op.Err
			}
			l.mu.Unlock()
		}
		close(op.Done)
	}
}

// take blocks until an op is queued and removes the one to run next: the
// oldest read that overlaps no write queued ahead of it, else the oldest
// write; nil once the lane is closing and the queue is empty. With one
// worker, a write issued before a queued read is either done or still
// queued, so the scan sees it; and a write runs only when every queued
// read waits on an older write, so no write overtakes a read.
func (l *Lane) take() *Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 {
		if l.closing {
			return nil
		}
		l.queued.Wait()
	}
	pick := -1
	for i, op := range l.queue {
		if op.Write {
			if pick < 0 {
				pick = i
			}
		} else if !l.behindWrite(i) {
			pick = i
			break
		}
	}
	op := l.queue[pick]
	n := len(l.queue) - 1
	copy(l.queue[pick:], l.queue[pick+1:])
	l.queue[n] = nil
	l.queue = l.queue[:n]
	l.room.Signal()
	return op
}

// behindWrite reports whether a write queued ahead of queue[i] overlaps
// its bytes.
func (l *Lane) behindWrite(i int) bool {
	r := l.queue[i]
	for _, w := range l.queue[:i] {
		if w.Write && w.Off < r.Off+int64(len(r.Buf)) && r.Off < w.Off+int64(len(w.Buf)) {
			return true
		}
	}
	return false
}

// Issue queues op for the worker, blocking while the queue is full. dur
// is its modeled device time and now the consumer's virtual clock: the
// device clock advances to max(clock, now)+dur, the op's DoneAt. All
// clock arithmetic happens here, in the consumer's program order, so
// modeled times depend neither on worker scheduling nor on the order the
// worker serves ops in. Issue(op, 0, 0) leaves the clock alone
// (bootstrap traffic outside the steady state).
func (l *Lane) Issue(op *Op, now, dur float64) {
	op.DoneAt = math.Max(l.clock, now) + dur
	l.clock = op.DoneAt
	op.Done = make(chan struct{})
	if l.file == nil {
		close(op.Done)
		return
	}
	l.mu.Lock()
	for len(l.queue) == queueDepth {
		l.room.Wait()
	}
	l.queue = append(l.queue, op)
	l.mu.Unlock()
	l.queued.Signal()
}

// Clock returns the device clock: when the last modeled op completes.
func (l *Lane) Clock() float64 { return l.clock }

// Path returns the backing file's location ("" for a virtual lane).
func (l *Lane) Path() string { return l.path }

// Err returns the first latched op failure.
func (l *Lane) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close drains the worker, closes and removes the backing file, and
// returns the first error among the latched op failure, the close and
// the remove. The owner guards against a second Close.
func (l *Lane) Close() error {
	if l.file == nil {
		return nil
	}
	l.mu.Lock()
	l.closing = true
	l.mu.Unlock()
	l.queued.Signal()
	l.wg.Wait()
	err := l.Err()
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	if rerr := os.Remove(l.path); err == nil {
		err = rerr
	}
	return err
}

// littleEndian reports whether the host stores a float32 in the codec's
// byte order, so the bulk view applies.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// PutFloat32s packs xs's bit patterns little-endian at the front of dst
// and returns the bytes after them, ready for the next array; the round
// trip through Float32s is bit-exact, NaN payloads included. dst must
// hold 4*len(xs) bytes. On a little-endian host it is one copy of xs's
// memory; elsewhere, the per-element loop.
func PutFloat32s(dst []byte, xs []float32) []byte {
	if littleEndian {
		return putFloat32sView(dst, xs)
	}
	return putFloat32sLoop(dst, xs)
}

// Float32s is PutFloat32s' inverse: it fills xs from the front of src
// and returns the bytes after them.
func Float32s(xs []float32, src []byte) []byte {
	if littleEndian {
		return float32sView(xs, src)
	}
	return float32sLoop(xs, src)
}

// bytesOf views xs's backing memory as bytes: 4*len(xs) of them, in the
// host's byte order. The view aliases xs and lives no longer than the
// copy that uses it; byte access needs no alignment, and every bit
// pattern of a float32 is valid bytes and back.
func bytesOf(xs []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 4*len(xs))
}

// putFloat32sView is PutFloat32s on a little-endian host, where xs's
// memory already is the encoding.
func putFloat32sView(dst []byte, xs []float32) []byte {
	n := 4 * len(xs)
	copy(dst[:n], bytesOf(xs))
	return dst[n:]
}

// float32sView is Float32s on a little-endian host.
func float32sView(xs []float32, src []byte) []byte {
	n := 4 * len(xs)
	copy(bytesOf(xs), src[:n])
	return src[n:]
}

// putFloat32sLoop is PutFloat32s on any host, one element at a time: the
// big-endian path and the reference the view is tested against.
func putFloat32sLoop(dst []byte, xs []float32) []byte {
	for _, x := range xs {
		binary.LittleEndian.PutUint32(dst, math.Float32bits(x))
		dst = dst[4:]
	}
	return dst
}

// float32sLoop is putFloat32sLoop's inverse.
func float32sLoop(xs []float32, src []byte) []byte {
	for i := range xs {
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(src))
		src = src[4:]
	}
	return src
}
