package tensor

import (
	"runtime"
	"sync"
)

// The matmul family shares one process-wide band pool instead of spawning
// goroutines per call: a TrainStep issues dozens of matmuls per layer, and
// per-call goroutine fan-out both allocates and defeats the scheduler's
// locality. Workers are started lazily on the first large product.
//
// A band task is a static kernel (named by bandOp) plus a pointer to a
// recycled call frame, never a closure: a serial call runs its bandCall
// straight off the caller's stack, a banded one copies it into a pooled
// bandFrame, so the entry points allocate nothing in steady state.

// parallelThreshold is the FLOP count below which the kernels stay single
// threaded: band fan-out costs more than it saves on small products.
// Re-measured with the AVX2 leaves on the two-vCPU bench host (one caller,
// median banded/serial time over back-to-back calls): 1.15 at 2·128³
// FLOPs, 1.0 [0.7..1.3] at 2·64·128·512, 0.8–1.0 at 2·128·128·512, 0.66
// at 2·256³, 0.51 at 2·512³. Handing a band over wakes a parked thread,
// which costs tens of µs on a quiet host and far more on a busy one, and
// the join then waits for whichever vCPU the host is serving worst — so
// below the point where the second vCPU clearly pays, fan-out buys no
// speed and makes a call's cost depend on the neighbours. The gate sits
// at that point, 2·256³: a product the size of a 128-token × 128-hidden
// MLP layer (2·128·128·512) stays on its caller, which is also the only
// sensible place for it when several rank goroutines already fill the
// cores. Above the gate the pool pays: `supertrain -steps 15 -layers 4
// -hidden 256 -heads 4 -seq 128 -batch 8 -vocab 256 -json` (products up
// to 2·1024·256·1024 FLOPs) ran in a median 18.5 s (17.6–20.6) against
// 24.5 s (23.3–26.3) with the gate raised past every product, faster in
// 8 of 8 alternated pairs on the same two-vCPU host, with the same final
// loss.
const parallelThreshold = 1 << 25

// bandAlign is the row multiple bands are cut at — the height of the
// assembly tiles — so only the last band of a product has leftover rows
// for the Go loops.
const bandAlign = 4

type bandOp uint8

const (
	opAccum bandOp = iota // accumRows: MatMul, TMatMulAccum
	opDot                 // dotRows: MatMulT
)

// bandCall is one kernel invocation: which kernel, and its operands.
type bandCall struct {
	op             bandOp
	out, a, b      []float32
	k, n, ars, aks int
}

// run executes rows [lo,hi) of the call on the calling goroutine.
func (c *bandCall) run(lo, hi int) {
	switch c.op {
	case opAccum:
		accumRows(c.out, c.a, c.b, lo, hi, c.k, c.n, c.ars, c.aks)
	case opDot:
		dotRows(c.out, c.a, c.b, lo, hi, c.k, c.n)
	}
}

// bandFrame is the heap copy of a banded call that its tasks point at.
type bandFrame struct {
	bandCall
	wg sync.WaitGroup
}

type bandTask struct {
	f      *bandFrame
	lo, hi int
}

var (
	poolOnce  sync.Once
	poolCh    chan bandTask
	framePool = sync.Pool{New: func() any { return new(bandFrame) }}
)

func startPool() {
	n := runtime.GOMAXPROCS(0) - 1
	// Room for a few concurrent submitters (one per rank goroutine) to
	// queue their bands without blocking on each other.
	poolCh = make(chan bandTask, 4*(n+1))
	for i := 0; i < n; i++ {
		go func() {
			for t := range poolCh {
				t.f.run(t.lo, t.hi)
				t.f.wg.Done()
			}
		}()
	}
}

// parallelRows runs c over rows [0,rows), split into bands across the
// shared pool when the work is large enough. The submitting goroutine
// always runs the first band inline, so progress never depends on pool
// capacity and the kernels stay deadlock-free (kernels never re-enter
// parallelRows).
func parallelRows(rows, flops int, c *bandCall) {
	workers := 1
	if flops >= parallelThreshold {
		workers = min(runtime.GOMAXPROCS(0), rows/bandAlign)
	}
	if workers <= 1 {
		c.run(0, rows)
		return
	}
	poolOnce.Do(startPool)
	band := ((rows+workers-1)/workers + bandAlign - 1) &^ (bandAlign - 1)
	f := framePool.Get().(*bandFrame)
	f.bandCall = *c
	for lo := band; lo < rows; lo += band {
		f.wg.Add(1)
		poolCh <- bandTask{f, lo, min(lo+band, rows)}
	}
	f.run(0, band)
	f.wg.Wait()
	f.bandCall = bandCall{} // a parked frame must not pin the operands
	framePool.Put(f)
}
