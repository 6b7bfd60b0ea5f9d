// Package iolane is the one background I/O lane the offload tiers share:
// a backing file, one FIFO worker goroutine, one latched first error and
// one virtual device clock. stv.MLPStore runs a lane per flash path and
// act.Store one for its spill file.
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

// Lane is one FIFO I/O worker over one backing file. The FIFO is the
// consistency mechanism: a read issued after a write of the same region
// sees the written bytes.
type Lane struct {
	file  File
	path  string
	ops   chan *Op // nil on a virtual lane
	wg    sync.WaitGroup
	track *obs.Track
	after func(*Op)
	clock float64

	mu  sync.Mutex
	err error
}

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
	// 64 deep so a seed sweep or a forward pass's spills rarely wait on
	// real file I/O; a full queue only blocks the consumer until the
	// worker drains it.
	l := &Lane{file: f, path: f.Name(), ops: make(chan *Op, 64), track: track, after: after}
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

// worker drains the queue in FIFO order, latching the first failure.
func (l *Lane) worker() {
	defer l.wg.Done()
	for op := range l.ops {
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

// Issue enqueues op behind everything issued before it. dur is its
// modeled device time and now the consumer's virtual clock: the device
// clock advances to max(clock, now)+dur, the op's DoneAt. All clock
// arithmetic happens here, in the consumer's program order, so modeled
// times do not depend on worker scheduling. Issue(op, 0, 0) leaves the
// clock alone (bootstrap traffic outside the steady state).
func (l *Lane) Issue(op *Op, now, dur float64) {
	op.DoneAt = math.Max(l.clock, now) + dur
	l.clock = op.DoneAt
	op.Done = make(chan struct{})
	if l.ops == nil {
		close(op.Done)
		return
	}
	l.ops <- op
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
	if l.ops == nil {
		return nil
	}
	close(l.ops)
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

// PutFloat32s packs xs's bit patterns little-endian at the front of dst
// and returns the bytes after them, ready for the next array; the round
// trip through Float32s is bit-exact, NaN payloads included. dst must
// hold 4*len(xs) bytes.
func PutFloat32s(dst []byte, xs []float32) []byte {
	for _, x := range xs {
		binary.LittleEndian.PutUint32(dst, math.Float32bits(x))
		dst = dst[4:]
	}
	return dst
}

// Float32s is PutFloat32s' inverse: it fills xs from the front of src
// and returns the bytes after them.
func Float32s(xs []float32, src []byte) []byte {
	for i := range xs {
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(src))
		src = src[4:]
	}
	return src
}
