package dp

import (
	"fmt"
	"math"
	"sync"

	"superoffload/internal/data"
	"superoffload/internal/nn"
	"superoffload/internal/obs"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// world is the engine's simulated interconnect over all N = R·S·P ranks:
// each link is a Go channel, so communication composes with goroutine
// scheduling the way NVLink transfers compose with compute streams —
// sends overlap whatever the peer is doing until the data is actually
// needed. It carries the coordinator protocol (cmd / resolution / go /
// results), the post-step weight all-gather links, the
// background-validation plane, and the per-axis link families: one set
// of sequence-parallel links per (group, stage) cell, the cross-cell
// gradient reduce-scatter, and the stage-boundary FIFOs. Cells are
// indexed g·P + p; global rank ids are (g·S + s)·P + p. A size-1 axis
// holds no links: S=1 cells carry no all-to-all or ring channels, and
// P=1 has no boundaries.
type world struct {
	N       int // total ranks
	B       int // buckets
	R, S, P int // data-parallel groups, sequence ranks per cell, stages per column

	// Coordinator → rank control links.
	cmd        []chan command
	resolution []chan stv.Resolution
	goCh       []chan goMsg
	// Rank → coordinator: one stepResult per cmdStep (or an ack for
	// cmdResolve).
	results []chan stepResult

	// gather[b][dst] carries the owner's replica tensors for bucket b,
	// holding its published fp16-rounded weights, to rank dst — the
	// all-gather links. The receiver copies them out (rank.allGather says
	// why the owner cannot overwrite them first).
	gather [][]chan nn.Params

	// Background validation: owners stream per-bucket partials; the
	// aggregator combines them in bucket order and delivers one global
	// verdict per step.
	partial chan partialMsg
	val     chan stv.Validation

	// cells[g·P+p] is cell (g, p)'s in-cell sequence-parallel links; the
	// ring there reduces over the stage's contiguous parameter span.
	cells []*spLinks
	// reduce[b][g·P+p] carries cell (g, p)'s contribution for bucket b —
	// the intersection of the cell's stage span with bucket b's range —
	// to the bucket's global owner.
	reduce reduceLinks
	// acts[p][g·S+s] carries stage p → p+1 boundary activations for
	// column (g, s); grads[p][g·S+s] the p+1 → p boundary gradients.
	acts  [][]*pipeLink
	grads [][]*pipeLink
	tel   *linkTelemetry

	// Tracing (nil when disabled): one track per rank interpreter plus
	// the coordinator's control-plane track. attachTracer fills them.
	tracks []*obs.Track
	ctrack *obs.Track
}

// attachTracer allocates this world's trace tracks: "rank r" per rank,
// one coordinator track, and the "comm" track of collective instants. A
// nil tracer leaves every track nil — the zero-overhead disabled mode.
func (w *world) attachTracer(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	w.ctrack = tr.Track("coordinator")
	w.tracks = make([]*obs.Track, w.N)
	for i := range w.tracks {
		w.tracks[i] = tr.Track(fmt.Sprintf("rank %d", i))
	}
	w.tel.track = tr.Track("comm")
}

// track returns rank id's trace track (nil when tracing is disabled).
func (w *world) track(id int) *obs.Track {
	if w.tracks == nil {
		return nil
	}
	return w.tracks[id]
}

// command drives a rank's top-level loop.
type command struct {
	kind   int            // cmdStep, cmdResolve, cmdStop
	micros []data.Batch   // cmdStep: this rank's micro-batches, in order
	ops    []scheduleOp   // cmdStep: the schedule to interpret over them
	res    stv.Resolution // cmdResolve
}

// stepResult is a rank's report for one cmdStep (the zero value acks a
// cmdResolve): final-stage ranks fill rows — per micro-batch, the per-row
// token losses in local row order, folded at the coordinator in global
// row order. The slices live in the rank's per-micro cache arenas, which
// the rank next writes in the following step's forwards — after the
// coordinator has folded them.
type stepResult struct {
	rows [][]float64
}

// partialMsg is one bucket's validation contribution.
type partialMsg struct {
	idx   int     // bucket index
	sumsq float64 // Σ g² over the reduced bucket gradient
	bad   bool    // NaN/Inf present
}

// newWorld wires the interconnect for r groups, s sequence ranks per
// cell, p pipeline stages, and b buckets.
func newWorld(r, s, p, b int) *world {
	n := r * s * p
	w := &world{N: n, B: b, R: r, S: s, P: p, tel: &linkTelemetry{}}
	w.cmd = make([]chan command, n)
	w.resolution = make([]chan stv.Resolution, n)
	w.goCh = make([]chan goMsg, n)
	w.results = make([]chan stepResult, n)
	for i := 0; i < n; i++ {
		w.cmd[i] = make(chan command, 1)
		w.resolution[i] = make(chan stv.Resolution, 1)
		w.goCh[i] = make(chan goMsg, 1)
		w.results[i] = make(chan stepResult, 1)
	}
	w.gather = make([][]chan nn.Params, b)
	for bi := 0; bi < b; bi++ {
		w.gather[bi] = make([]chan nn.Params, n)
		for ri := 0; ri < n; ri++ {
			w.gather[bi][ri] = make(chan nn.Params, 1)
		}
	}
	w.partial = make(chan partialMsg, b)
	w.val = make(chan stv.Validation, 1)
	w.cells = make([]*spLinks, r*p)
	for i := range w.cells {
		w.cells[i] = newSPLinks(s, w.tel)
	}
	w.reduce = newReduceLinks(b, r*p)
	w.acts = make([][]*pipeLink, p-1)
	w.grads = make([][]*pipeLink, p-1)
	for bi := 0; bi < p-1; bi++ {
		w.acts[bi] = make([]*pipeLink, r*s)
		w.grads[bi] = make([]*pipeLink, r*s)
		for col := 0; col < r*s; col++ {
			w.acts[bi][col] = newPipeLink()
			w.grads[bi][col] = newPipeLink()
		}
	}
	return w
}

// bucketOwner maps a bucket to its owning rank (round-robin over the
// global bucket order, the ZeRO-style partition, ignoring topology) — the
// single ownership policy every engine component consults.
func bucketOwner(bucket, ranks int) int { return bucket % ranks }

// aggregate is the validation reducer: each step it collects exactly one
// partial per bucket (arrival order is scheduling-dependent; combination
// order is not — partials sum in bucket index order, matching
// optim.GlobalNorm's per-shard grouping bit for bit) and publishes the
// global verdict input. It exits when the partial link closes.
func (w *world) aggregate() {
	sums := make([]float64, w.B)
	for {
		bad := false
		for i := 0; i < w.B; i++ {
			p, ok := <-w.partial
			if !ok {
				return
			}
			sums[p.idx] = p.sumsq
			bad = bad || p.bad
		}
		var s float64
		for _, q := range sums {
			s += q
		}
		w.val <- stv.Validation{Bad: bad, Norm: math.Sqrt(s)}
	}
}

// reduceLinks carries raw gradient contributions to bucket owners:
// entry [b][src] delivers source cell src's contribution for bucket b to
// the bucket's owner.
type reduceLinks [][]chan []float32

// newReduceLinks wires the reduce-scatter links for b buckets fed by
// nSrc sources each.
func newReduceLinks(b, nSrc int) reduceLinks {
	r := make(reduceLinks, b)
	for bi := 0; bi < b; bi++ {
		r[bi] = make([]chan []float32, nSrc)
		for si := 0; si < nSrc; si++ {
			r[bi][si] = make(chan []float32, 1)
		}
	}
	return r
}

// splitRows slices a batch into n per-group row slices along the batch
// dimension: slice g takes rows [g·B/n, (g+1)·B/n). The caller has
// validated divisibility.
func splitRows(b data.Batch, n int) []data.Batch {
	per := b.BatchSize / n
	out := make([]data.Batch, n)
	for g := 0; g < n; g++ {
		lo, hi := g*per*b.Seq, (g+1)*per*b.Seq
		out[g] = data.Batch{
			Tokens:    b.Tokens[lo:hi],
			Targets:   b.Targets[lo:hi],
			BatchSize: per,
			Seq:       b.Seq,
		}
	}
	return out
}

// splitSeq shards a batch into n sequence shards: shard s takes
// positions [s·T/n, (s+1)·T/n) of every batch row (n == 1 is the batch
// itself, uncopied). The caller has validated divisibility
// (nn.GPT.ValidateSP).
func splitSeq(b data.Batch, n int) []data.Batch {
	if n == 1 {
		return []data.Batch{b}
	}
	tl := b.Seq / n
	out := make([]data.Batch, n)
	for s := 0; s < n; s++ {
		toks := make([]int, 0, b.BatchSize*tl)
		tgts := make([]int, 0, b.BatchSize*tl)
		for r := 0; r < b.BatchSize; r++ {
			lo := r*b.Seq + s*tl
			toks = append(toks, b.Tokens[lo:lo+tl]...)
			tgts = append(tgts, b.Targets[lo:lo+tl]...)
		}
		out[s] = data.Batch{Tokens: toks, Targets: tgts, BatchSize: b.BatchSize, Seq: tl}
	}
	return out
}

// pipeLink is one stage-boundary link of the pipeline axis: an
// unbounded FIFO of boundary tensors between vertically adjacent ranks
// of one (group, sequence) column. Sends never block — under 1F1B an
// upstream stage may run several micro-batches ahead of its consumer,
// and a bounded link there could deadlock against the cap-1 collective
// channels the rest of the world uses — while receives block until a
// tensor arrives. Tensors pass by reference: they live in the sender's
// per-micro cache arena, which the sender next writes in the following
// step (see rank.caches), so the receiver reads them in place and the
// happens-before edge comes from the mutex.
type pipeLink struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []*tensor.Tensor
}

// newPipeLink wires one boundary FIFO.
func newPipeLink() *pipeLink {
	l := &pipeLink{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// send enqueues a boundary tensor; never blocks.
func (l *pipeLink) send(t *tensor.Tensor) {
	l.mu.Lock()
	l.q = append(l.q, t)
	l.mu.Unlock()
	l.cond.Signal()
}

// recv dequeues the oldest boundary tensor, blocking until one exists.
// Micro-batch order is preserved because each boundary's sender emits in
// schedule order.
func (l *pipeLink) recv() *tensor.Tensor {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.q) == 0 {
		l.cond.Wait()
	}
	t := l.q[0]
	l.q = l.q[1:]
	return t
}
