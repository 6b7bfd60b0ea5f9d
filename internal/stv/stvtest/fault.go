// Package stvtest provides the fault-injection harness for the offload
// tiers' I/O lanes: an Injector that wraps a chosen path's backing file
// (via stv.MLPStoreConfig.WrapPath, or the activation store's lane wrap)
// and throttles, stalls, drops, or errors its IO once the path reaches a
// chosen op count, plus the goroutine-leak check the stores' Close tests
// share. Tests drive real training over the faulty store and assert the
// graceful-degradation contract — quarantine, re-route, bit-exact
// recovery, latched-error reporting on Close.
package stvtest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"superoffload/internal/iolane"
)

// FaultKind selects what the injected fault does to the path's IO.
type FaultKind string

const (
	// FaultError fails every op on the path once triggered, the way a
	// dead device errors all traffic.
	FaultError FaultKind = "error"
	// FaultDrop silently discards writes (reporting success) once
	// triggered — the lost-write case the store's record checksums
	// exist to catch. Reads pass through.
	FaultDrop FaultKind = "drop"
	// FaultStall sleeps Delay on every op once triggered — a throttled
	// or hung device. The store's SlowOpWall watchdog is what turns
	// this into a quarantine.
	FaultStall FaultKind = "stall"
)

// Fault arms one injected fault: on path Path, starting with the path's
// AfterOps'th IO (counting reads and writes together from 0), behave as
// Kind; Delay parameterizes FaultStall.
type Fault struct {
	Path     int
	Kind     FaultKind
	AfterOps int
	Delay    time.Duration
}

// Injector wraps path files so armed faults fire at their op counts.
// Safe for concurrent use by the store's per-path workers.
type Injector struct {
	mu     sync.Mutex
	faults []Fault
	ops    map[int]int
}

// NewInjector arms the given faults.
func NewInjector(faults ...Fault) *Injector {
	return &Injector{faults: faults, ops: map[int]int{}}
}

// WrapPath is the stv.MLPStoreConfig.WrapPath hook.
func (in *Injector) WrapPath(path int, f iolane.File) iolane.File {
	return &faultFile{in: in, path: path, f: f}
}

// next counts one op on the path and returns the fault to apply to it,
// if any armed fault has reached its trigger.
func (in *Injector) next(path int) (Fault, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.ops[path]
	in.ops[path] = n + 1
	for _, f := range in.faults {
		if f.Path == path && n >= f.AfterOps {
			return f, true
		}
	}
	return Fault{}, false
}

// faultFile is one wrapped path file.
type faultFile struct {
	in   *Injector
	path int
	f    iolane.File
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if f, ok := ff.in.next(ff.path); ok {
		switch f.Kind {
		case FaultError:
			return 0, fmt.Errorf("stvtest: injected read error on path %d", ff.path)
		case FaultStall:
			time.Sleep(f.Delay)
		}
	}
	return ff.f.ReadAt(p, off)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f, ok := ff.in.next(ff.path); ok {
		switch f.Kind {
		case FaultError:
			return 0, fmt.Errorf("stvtest: injected write error on path %d", ff.path)
		case FaultDrop:
			return len(p), nil
		case FaultStall:
			time.Sleep(f.Delay)
		}
	}
	return ff.f.WriteAt(p, off)
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// NoLeakedGoroutines fails the test unless runtime.NumGoroutine settles
// back to before (the count ahead of the store's constructor) after its
// Close. It polls: a worker past its WaitGroup may still be counted.
func NoLeakedGoroutines(t testing.TB, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before the store, %d after Close", before, runtime.NumGoroutine())
		}
	}
}
