package dp

import (
	"math"
	"runtime"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// rank is one simulated superchip: rank (g, s, p) — global id
// (g·S + s)·P + p — holds a full fp16 model replica but computes only
// pipeline stage p's contiguous block range, over sequence shard s of
// data-parallel group g's batch rows, and owns its round-robin share of
// ALL buckets' optimizer state (ownership ignores topology, so
// checkpoints are byte-identical across shapes) behind its own bucket
// store.
//
// Every shape runs the one replica pass, nn.Lanes, into a per-micro slot
// (so several micro-batches can be in flight), then the weight gradients
// as the per-row replay the in-cell ring folds. At S=1 the exchange and
// the ring have no peer, at P=1 there are no boundaries. Where both hold
// (soloCell) the pass splits its rows over lanes and the replay runs
// inside backward.
type rank struct {
	id    int // global rank: (group·S + local)·P + stage
	group int // data-parallel group g ∈ [0, R)
	local int // in-cell sequence rank s ∈ [0, S)
	stage int // pipeline stage p ∈ [0, P)

	w     *world
	cell  *spLinks // this rank's (group, stage) cell links
	model *nn.GPT
	sp    nn.SP // this rank's place in its cell, and its activation tap
	// soloCell is S = P = 1: the rank is its whole cell and column. Its
	// pass may then split over lanes, and since nothing sits between a
	// micro's backward and its reduce, the weight-gradient replay runs
	// inside backward — where the single-rank trace books it — into flat.
	soloCell bool
	flat     []float32
	// want, when > 0, replaces the lane count a solo cell derives from
	// GOMAXPROCS — a seam for tests that drive every count on any host.
	want   int
	store  stv.BucketStore
	exec   *stv.PlacementExecutor // nil without a placement plan
	ast    *act.Store             // nil without an activation tier
	groups []nn.Params            // global bucket layout over this replica
	// owned is this rank's ZeRO partition, ascending bucket index: both
	// versions of the fp32 master weights and Adam moments of each bucket
	// it owns. Other buckets have no optimizer state here — only the fp16
	// weights inside the model.
	owned []*stv.Bucket
	// offsets[b] is bucket b's start in the flat Params() layout — the
	// layout the ring reduces over.
	offsets []int
	// spans[p] is stage p's StageParamSpan — spans partition the flat
	// layout, so every bucket element belongs to exactly one stage.
	spans [][2]int
	// seeder hands each cell's local rank 0 the per-micro ring buffers,
	// sized to this stage's span (see flatSeeder for reuse discipline).
	seeder flatSeeder
	// sendBufs[m][b] stages this cell's contribution for micro-batch m
	// and bucket b when it cannot fold at once (see reduce). Buffers are
	// distinct per micro-batch within a step (a queued contribution is
	// folded whenever its owner next reaches a reduce, possibly after
	// this rank has computed later micros) and reused across steps: every
	// owner finishes its folds in its last reduce, before its report, and
	// the engine collects every rank's report before releasing the
	// next step, so all owner reads of step N happen before any step-N+1
	// write.
	sendBufs [][][]float32
	// cursors[i] is owned[i]'s position in the (micro, stage, group)
	// order its contributions fold in (see fold); zero between steps.
	cursors []foldCursor

	// Per-micro interpreter state, indexed by micro-batch slot m: the
	// pass, the final stage's per-row losses, and the boundary
	// activation/gradient received from the neighbouring stages. passes[m]
	// persists across steps — the next forward of slot m takes over its
	// caches' arenas, so a steady-state step allocates nothing here. That
	// is safe because what another goroutine reads out of an arena (loss
	// rows, boundary tensors, all-to-all payloads) is read inside the step
	// that produced it, and the engine collects every rank's report
	// before it releases the next step; nn/workspace.go carries the full
	// argument.
	micros  []data.Batch
	rows    [][]float64
	passes  []*nn.Lanes
	bounds  []*tensor.Tensor
	dBounds []*tensor.Tensor
}

// newRank partitions the replica under the global (R·S·P-way) ownership
// policy, seeding the rank's store with the buckets it owns (keyed by
// global bucket index, so the store's prefetch cycle walks the rank's
// ZeRO shard in reduction order), wires the rank into its cell's links
// and its activation store, when non-nil, into its replica pass, and
// builds its placement executor over the owned shard.
func newRank(group, local, stage int, w *world, model *nn.GPT, cfg Config, store stv.BucketStore, ast *act.Store) *rank {
	r := &rank{
		id:    (group*w.S+local)*w.P + stage,
		group: group, local: local, stage: stage,
		w: w, cell: w.cells[group*w.P+stage], model: model, store: store,
		soloCell: w.S == 1 && w.P == 1,
	}
	r.sp = nn.SP{Rank: local, Ranks: w.S, AllToAll: func(send, recv [][]float32) {
		r.cell.allToAll(local, send, recv)
	}}
	r.seeder.bufs = make([][]float32, min(w.S, 2))
	if ast != nil {
		r.ast, r.sp.Tap = ast, ast
	}
	r.groups = stv.PartitionGroups(model.Params(), cfg.BucketElems)
	r.offsets = make([]int, len(r.groups))
	off := 0
	for bi, g := range r.groups {
		r.offsets[bi] = off
		off += g.TotalSize()
		if bucketOwner(bi, w.N) == r.id {
			r.owned = append(r.owned, stv.NewBucket(g, store, bi))
		}
	}
	r.cursors = make([]foldCursor, len(r.owned))
	r.spans = make([][2]int, w.P)
	for p := 0; p < w.P; p++ {
		lo, hi := model.StageParamSpan(p, w.P)
		r.spans[p] = [2]int{lo, hi}
	}
	r.exec = stv.NewPlacementExecutor(cfg.Placement, model, ast, r.owned, len(r.groups))
	return r
}

// run is the rank's top-level loop: interpret each command until Close
// closes the command link.
func (r *rank) run() {
	for c := range r.w.cmd[r.id] {
		r.runSchedule(c)
	}
}

// lanes is how many lanes a pass runs: in a solo cell one of the N
// ranks' share of GOMAXPROCS, at least one (the pass clamps it to the
// batch rows), so ranks that fill the cores keep one lane each; one
// everywhere else.
func (r *rank) lanes() int {
	if r.want > 0 || !r.soloCell {
		return max(r.want, 1)
	}
	return max(1, runtime.GOMAXPROCS(0)/r.w.N)
}

// apply executes a validation resolution on this rank: owners apply it
// to their partition, and if weights changed every rank republishes via
// all-gather.
func (r *rank) apply(v stv.Resolution) {
	for _, b := range r.owned {
		b.Apply(v)
	}
	if v.WeightsChanged() {
		r.allGather()
	}
}

// forward runs micro m's forward over this stage's block range and this
// rank's sequence shard, recording its loss. Stage 0 embeds from the
// micro's tokens; later stages consume the boundary activation recvAct
// stored for this micro. Only the final stage produces losses.
func (r *rank) forward(m int) {
	b := r.micros[m]
	var xIn *tensor.Tensor
	if r.stage > 0 {
		xIn = r.bounds[m]
	}
	r.rows[m] = r.passes[m].Forward(r.model, b.Tokens, b.Targets, b.BatchSize, b.Seq,
		r.sp, r.stage, r.w.P, xIn, r.lanes())
}

// backward runs micro m's backward over the stage's block range: the
// final stage seeds from its loss gradient (lossScale applies there and
// rides the chain upstream), earlier stages from the boundary gradient
// recvGrad stored for this micro. A solo cell replays the weight
// gradients here too.
func (r *rank) backward(m int, scale float64) {
	var dOut *tensor.Tensor
	if r.stage < r.w.P-1 {
		dOut = r.dBounds[m]
	}
	r.passes[m].Backward(scale, dOut)
	if r.soloCell {
		r.flat = r.replay(m)
	}
}

// replay produces micro m's span gradient for the cell's rows: over the
// in-cell ring (spLinks.ringReduce), from a zeroed flat buffer.
func (r *rank) replay(m int) []float32 {
	span := r.spans[r.stage]
	return r.cell.ringReduce(r.local, r.passes[m], r.micros[m].BatchSize, func() []float32 {
		return r.seeder.next(span[1] - span[0])
	})
}

// col is this rank's (group, sequence) column index into the boundary
// links.
func (r *rank) col() int { return r.group*r.w.S + r.local }

// sendAct ships micro m's boundary activation to the next stage down
// the column.
func (r *rank) sendAct(m int) {
	t := r.passes[m].Cache().StageOut()
	r.w.tel.countStage("stageAct", len(t.Data))
	r.w.acts[r.stage][r.col()].send(t)
}

// recvAct receives micro m's boundary activation from the previous
// stage up the column.
func (r *rank) recvAct(m int) {
	r.bounds[m] = r.w.acts[r.stage-1][r.col()].recv()
}

// sendGrad ships micro m's boundary gradient to the previous stage up
// the column.
func (r *rank) sendGrad(m int) {
	t := r.passes[m].Cache().StageDIn()
	r.w.tel.countStage("stageGrad", len(t.Data))
	r.w.grads[r.stage-1][r.col()].send(t)
}

// recvGrad receives micro m's boundary gradient from the next stage
// down the column.
func (r *rank) recvGrad(m int) {
	r.dBounds[m] = r.w.grads[r.stage][r.col()].recv()
}

// intersectRange clips [alo, ahi) to [blo, bhi); empty intersections
// come back with lo >= hi.
func intersectRange(alo, ahi, blo, bhi int) (lo, hi int) {
	return max(alo, blo), min(ahi, bhi)
}

// delegateLocal maps a bucket to the in-cell rank that forwards the
// cell's contribution across cells, spreading the sends round-robin over
// the cell's S ranks (at P=1 that is the rank sharing the global owner's
// local index, so the owner's own cell's delegate is the owner itself).
func delegateLocal(bucket, seqRanks int) int { return bucketOwner(bucket, seqRanks) }

// reduce is the two-level gradient reduction for micro m, restricted to
// this stage's parameter span. Level one produces the cell's span
// gradient for its group's row slice over the in-cell ring
// (spLinks.ringReduce), whose hops visit (batch row, shard) pairs in
// ascending global row order so the result is bit-identical to a
// single-rank backward over the same rows (a solo cell has it from
// backward). Level two is the cross-cell bucketized reduce-scatter: for
// each bucket intersecting the span, the cell's delegate hands the
// intersection slice to the bucket's global owner. A delegate that owns
// the bucket and whose cursor is at this contribution folds it straight
// from the flat buffer; otherwise it stages a copy and sends it. Either
// way the fold order is the cursor's. Then this rank, as an owner, folds
// whatever its buckets have received (fold): without waiting, except in
// the step's last reduce, which blocks until every contribution of
// every micro is folded — so an early stage's replay never holds up a
// later stage's next forward, and speculate still sees whole sums.
// Every rank sends before it folds and has sent every boundary gradient
// before its last reduce, so no wait cycle runs through a fold.
func (r *rank) reduce(m int) {
	span := r.spans[r.stage]
	// flat is the cell's ring-reduced span gradient.
	flat := r.flat
	if !r.soloCell {
		flat = r.replay(m)
	}
	cell := r.group*r.w.P + r.stage
	for bi, g := range r.groups {
		lo, hi := intersectRange(r.offsets[bi], r.offsets[bi]+g.TotalSize(), span[0], span[1])
		if lo >= hi || delegateLocal(bi, r.w.S) != r.local {
			continue
		}
		src := flat[lo-span[0] : hi-span[0]]
		if bucketOwner(bi, r.w.N) == r.id {
			i := (bi - r.id) / r.w.N // owned is every N-th bucket from r.id
			if c := &r.cursors[i]; *c == (foldCursor{m, r.stage, r.group}) {
				b, bo := r.owned[i], r.offsets[bi]
				stv.AccumInto(b.Grad()[lo-bo:hi-bo], src, m == 0 && r.group == 0)
				c.next(r.w)
				continue
			}
		}
		for len(r.sendBufs) <= m {
			r.sendBufs = append(r.sendBufs, make([][]float32, len(r.groups)))
		}
		payload := r.sendBufs[m][bi]
		if len(payload) != hi-lo {
			payload = make([]float32, hi-lo)
			r.sendBufs[m][bi] = payload
		}
		copy(payload, src)
		r.w.reduce[bi][cell].send(payload)
	}
	r.fold(m == len(r.micros)-1)
}

// foldCursor is the next (micro, stage, group) contribution an owned
// bucket folds.
type foldCursor struct{ m, p, g int }

// next moves the cursor past one contribution, in (micro, stage, group)
// order.
func (c *foldCursor) next(w *world) {
	if c.g++; c.g == w.R {
		c.g = 0
		if c.p++; c.p == w.P {
			c.p, c.m = 0, c.m+1
		}
	}
}

// fold folds the owned buckets' queued contributions into their
// gradients, each bucket from its cursor in (micro, stage, group) order,
// skipping stages whose span misses the bucket. Stage spans are
// disjoint, so each bucket ELEMENT folds in exactly (micro, group) order
// — the order one rank's gradient accumulation stages the R row slices
// — keeping the reduced sum bit-identical however the
// contributions interleave in time. Without wait, a bucket stops at its
// first contribution that has not arrived; with wait, fold blocks until
// all of the step's micros are folded and rewinds the cursors.
func (r *rank) fold(wait bool) {
	w, micros := r.w, len(r.micros)
	for i, b := range r.owned {
		c := &r.cursors[i]
		dst, bo := b.Grad(), r.offsets[b.Index()]
		for c.m < micros {
			lo, hi := intersectRange(bo, bo+b.Size(), r.spans[c.p][0], r.spans[c.p][1])
			if lo < hi {
				link := w.reduce[b.Index()][c.g*w.P+c.p]
				v, ok := link.tryRecv()
				if !ok && !wait {
					break
				}
				if !ok {
					v = link.recv()
				}
				stv.AccumInto(dst[lo-bo:hi-bo], v, c.m == 0 && c.g == 0)
			} else {
				c.g = w.R - 1 // no stage-p contribution to this bucket
			}
			c.next(w)
		}
		if wait {
			*c = foldCursor{}
		}
	}
}

// speculate runs the post-reduction phase on the owned partition:
// corrupt bucket 0 when the command's fault bit asks, normalize the
// reduced sum, apply the per-bucket speculative Adam step, which
// publishes the fp16 weights, record each bucket's sum of squares for
// the engine's verdict (world.sumsq), and share the weights via
// allGather. Each cell produced its whole row slice's span gradient and
// the cross-cell reduce summed R of them per micro (stages contribute
// disjoint spans), so the divisor is micros·R — one rank's count for the
// same R-way decomposition.
func (r *rank) speculate(c command) {
	inv := float32(1 / (c.scale * float64(len(r.micros)*r.w.R)))
	for _, b := range r.owned {
		if b.Index() == 0 && c.inject {
			b.Grad()[0] = float32(math.Inf(1))
		}
		b.SpeculativeStep(c.adam, inv)
		r.w.sumsq[b.Index()] = optim.SumSquares(b.Grad())
	}
	r.allGather()
}

// report closes the command out: after a step, record placement
// telemetry (the backward volume is this rank's batch rows × positions
// over the step's micro-batches); then hand the per-micro loss rows (nil
// except on the final stage; none after Flush) to the engine.
func (r *rank) report() stepResult {
	if len(r.micros) > 0 {
		tokens := 0
		for _, b := range r.micros {
			tokens += b.BatchSize * b.Seq
		}
		r.exec.Record(tokens, r.micros[0].Seq)
	}
	return stepResult{rows: r.rows[:len(r.micros)]}
}

// allGather sends every owned bucket's replica tensors, just published
// by a step, rollback or clip, to the other N-1 ranks, and copies the
// ones it receives into this replica (owned buckets are already there).
//
// A receiver copies the owner's tensors, so it must do so before the
// owner's next write, in its next Apply or SpeculativeStep. After
// speculate, receivers copy before they report, and the engine has
// every report before it sends the next command. After resolve, a
// receiver copies before its first forward, and the owner steps only
// after its own backward and reduce, which wait on every rank's
// backward through reduce contributions, all-to-all and ring hops, and
// pipeline boundary sends.
func (r *rank) allGather() {
	for _, b := range r.owned {
		for dst := 0; dst < r.w.N; dst++ {
			if dst != r.id {
				r.w.gather[b.Index()][dst] <- r.groups[b.Index()]
			}
		}
	}
	for bi, g := range r.groups {
		if bucketOwner(bi, r.w.N) != r.id {
			copyWeights(g, <-r.w.gather[bi][r.id])
		}
	}
}

// copyWeights copies one bucket's weight tensors between two replicas.
func copyWeights(dst, src nn.Params) {
	for i, p := range dst {
		copy(p.W.Data, src[i].W.Data)
	}
}
