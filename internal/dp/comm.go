package dp

import (
	"fmt"
	"sync"

	"superoffload/internal/data"
	"superoffload/internal/nn"
	"superoffload/internal/obs"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// world is the engine's simulated interconnect over all N = R·S·P ranks:
// each link is a Go channel or an unbounded FIFO, so communication
// composes with goroutine scheduling the way NVLink transfers compose
// with compute streams — sends overlap whatever the peer is doing until
// the data is actually needed. It carries the engine's control links
// (one command in and one report out per rank), the post-step weight
// all-gather links, the owners' per-bucket sums of squares, and the
// per-axis link families: one set of sequence-parallel links per
// (group, stage) cell, and the cross-cell gradient reduce-scatter and
// stage-boundary FIFOs.
// Cells are indexed g·P + p; global rank ids are (g·S + s)·P + p. A
// size-1 axis holds no links: S=1 cells carry no all-to-all or ring
// channels, and P=1 has no boundaries.
type world struct {
	N       int // total ranks
	B       int // buckets
	R, S, P int // data-parallel groups, sequence ranks per cell, stages per column

	// Engine → rank: one command per step or Flush; closed to stop the
	// rank. Rank → engine: one stepResult per command.
	cmd     []chan command
	results []chan stepResult

	// gather[b][dst] carries the owner's replica tensors for bucket b,
	// holding its published fp16-rounded weights, to rank dst — the
	// all-gather links. The receiver copies them out (rank.allGather says
	// why the owner cannot overwrite them first).
	gather [][]chan nn.Params

	// sumsq[b] is bucket b's Σ g² over its normalised reduced gradient,
	// written by the owner in speculate before it reports and summed by
	// the engine in bucket order once it holds every report — the
	// results receive is the happens-before edge both ways, since the
	// engine sends the next command only after that sum.
	sumsq []float64

	// cells[g·P+p] is cell (g, p)'s in-cell sequence-parallel links; the
	// ring there reduces over the stage's contiguous parameter span.
	cells []*spLinks
	// reduce[b][g·P+p] carries cell (g, p)'s per-micro contributions for
	// bucket b — the intersection of the cell's stage span with bucket
	// b's range — to the bucket's global owner, which folds them as they
	// arrive (rank.fold).
	reduce [][]*fifo[[]float32]
	// acts[p][g·S+s] carries stage p → p+1 boundary activations for
	// column (g, s); grads[p][g·S+s] the p+1 → p boundary gradients.
	// Tensors pass by reference: they live in the sender's per-micro
	// cache arena, which it next writes in the following step (see
	// rank.caches), so the receiver reads them in place.
	acts  [][]*fifo[*tensor.Tensor]
	grads [][]*fifo[*tensor.Tensor]
	tel   *linkTelemetry

	// Tracing (nil tracks when disabled): one track per rank interpreter
	// plus the engine's control-plane track, "coordinator". attachTracer
	// fills them.
	tracks []*obs.Track
	ctrack *obs.Track
}

// attachTracer allocates this world's trace tracks: "rank r" per rank,
// one coordinator track, and the "comm" track of collective instants. A
// world of one rank has no links and nothing to coordinate: its one
// track is "trainer", the single-superchip timeline. A nil tracer leaves
// every track nil — the zero-overhead disabled mode.
func (w *world) attachTracer(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	if w.N == 1 {
		w.tracks[0] = tr.Track("trainer")
		return
	}
	w.ctrack = tr.Track("coordinator")
	for i := range w.tracks {
		w.tracks[i] = tr.Track(fmt.Sprintf("rank %d", i))
	}
	w.tel.track = tr.Track("comm")
}

// command is one schedule for a rank to interpret, with everything the
// engine resolved for it before dispatch: a step's, or Flush's resolve
// and report over no micro-batches. It is sent by value, so a steady
// step allocates nothing for it.
type command struct {
	micros []data.Batch   // this rank's micro-batches, in order
	ops    []scheduleOp   // the schedule to interpret over them
	res    stv.Resolution // the previous step's verdict, which opResolve applies
	adam   optim.Config   // this step's Adam config (opSpeculate)
	scale  float64        // the loss scale opBackward and opSpeculate use
	inject bool           // corrupt the reduced gradient of bucket 0 (opSpeculate)
}

// stepResult is a rank's report for one command: final-stage ranks fill
// rows — per micro-batch, the per-row token losses in local row order,
// folded by the engine in global row order. The slices live in the rank's
// per-micro cache arenas, which the rank next writes in the following
// step's forwards — after the engine has folded them.
type stepResult struct {
	rows [][]float64
}

// newWorld wires the interconnect for r groups, s sequence ranks per
// cell, p pipeline stages, and b buckets.
func newWorld(r, s, p, b int) *world {
	n := r * s * p
	w := &world{N: n, B: b, R: r, S: s, P: p, tel: &linkTelemetry{}, tracks: make([]*obs.Track, n)}
	w.cmd = make([]chan command, n)
	w.results = make([]chan stepResult, n)
	for i := 0; i < n; i++ {
		w.cmd[i] = make(chan command, 1)
		w.results[i] = make(chan stepResult, 1)
	}
	w.gather = make([][]chan nn.Params, b)
	for bi := 0; bi < b; bi++ {
		w.gather[bi] = make([]chan nn.Params, n)
		for ri := 0; ri < n; ri++ {
			w.gather[bi][ri] = make(chan nn.Params, 1)
		}
	}
	w.sumsq = make([]float64, b)
	w.cells = make([]*spLinks, r*p)
	for i := range w.cells {
		w.cells[i] = newSPLinks(s, w.tel)
	}
	w.reduce = make([][]*fifo[[]float32], b)
	for bi := range w.reduce {
		w.reduce[bi] = make([]*fifo[[]float32], r*p)
		for src := range w.reduce[bi] {
			w.reduce[bi][src] = newFIFO[[]float32]()
		}
	}
	w.acts = make([][]*fifo[*tensor.Tensor], p-1)
	w.grads = make([][]*fifo[*tensor.Tensor], p-1)
	for bi := 0; bi < p-1; bi++ {
		w.acts[bi] = make([]*fifo[*tensor.Tensor], r*s)
		w.grads[bi] = make([]*fifo[*tensor.Tensor], r*s)
		for col := 0; col < r*s; col++ {
			w.acts[bi][col] = newFIFO[*tensor.Tensor]()
			w.grads[bi][col] = newFIFO[*tensor.Tensor]()
		}
	}
	return w
}

// bucketOwner maps a bucket to its owning rank (round-robin over the
// global bucket order, the ZeRO-style partition, ignoring topology) — the
// single ownership policy every engine component consults.
func bucketOwner(bucket, ranks int) int { return bucket % ranks }

// fifo is one link of the reduce-scatter or pipeline axis: an unbounded
// FIFO, so sends never block, while recv blocks until a value arrives
// and tryRecv does not wait. Sends never blocking is what keeps 1F1B
// live: an upstream stage may run several micro-batches ahead of its
// consumer, and a bucket owner folds contributions only as they arrive
// (rank.fold). Values pass by reference; the happens-before edge comes
// from the mutex. Pops advance a head index and the queue rewinds to
// q[:0] once empty, so a steady-state step reuses one backing array.
type fifo[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []T
	head int // q[head:] is queued
}

// newFIFO wires one unbounded link.
func newFIFO[T any]() *fifo[T] {
	l := &fifo[T]{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// send enqueues v; never blocks.
func (l *fifo[T]) send(v T) {
	l.mu.Lock()
	l.q = append(l.q, v)
	l.mu.Unlock()
	l.cond.Signal()
}

// recv dequeues the oldest value, blocking until one exists. Order is
// the sender's: each link has one sender, which emits in schedule order.
func (l *fifo[T]) recv() T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.head == len(l.q) {
		l.cond.Wait()
	}
	return l.pop()
}

// tryRecv dequeues the oldest value if one is queued.
func (l *fifo[T]) tryRecv() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == len(l.q) {
		return v, false
	}
	return l.pop(), true
}

// pop takes q[head] under the lock, clearing its slot.
func (l *fifo[T]) pop() T {
	var zero T
	v := l.q[l.head]
	l.q[l.head] = zero
	if l.head++; l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return v
}
