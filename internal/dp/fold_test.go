package dp

import (
	"math"
	"slices"
	"testing"
	"time"

	"superoffload/internal/data"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// foldItem is one contribution in a bucket's fold order: micro m, stage
// p, group g, covering the bucket's flat range [lo, hi).
type foldItem struct{ m, p, g, lo, hi int }

// foldItems lists bucket b's contributions on rank r over micros micro
// batches, in the order the pre-cursor reduce folded them: for m, for p
// (stages whose span meets the bucket), for g.
func foldItems(r *rank, b *stv.Bucket, micros int) []foldItem {
	bo := r.offsets[b.Index()]
	var items []foldItem
	for m := 0; m < micros; m++ {
		for p := 0; p < r.w.P; p++ {
			lo, hi := intersectRange(bo, bo+b.Size(), r.spans[p][0], r.spans[p][1])
			if lo >= hi {
				continue
			}
			for g := 0; g < r.w.R; g++ {
				items = append(items, foldItem{m, p, g, lo - bo, hi - bo})
			}
		}
	}
	return items
}

// sameBits reports whether two float32 slices hold identical bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPipeFoldTakesArrivedPrefix: an owner's non-blocking fold takes, per
// bucket, exactly the prefix of (micro, stage, group) contributions that
// has arrived — stopping at the first gap even where later contributions
// wait on other links — and returns; the blocking fold then completes,
// and the folded bits equal the eager per-micro fold's on every owned
// bucket of a (2,1,2) engine, buckets that straddle the stage boundary
// included.
func TestPipeFoldTakesArrivedPrefix(t *testing.T) {
	const micros = 3
	cfg := shapeConfig(2, 1, 2)
	cfg.BucketElems = 3000
	e, err := New(deepGPT(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := tensor.NewRNG(5)
	straddles, pastGap := 0, 0
	// The rank goroutines idle on their command links, so the test may
	// drive each rank's fold directly.
	for _, r := range e.ranks {
		r.micros = make([]data.Batch, micros)
		link := func(it foldItem) int { return it.g*r.w.P + it.p }
		type bucketCase struct {
			items         []foldItem
			ready         int // contributions [0, ready) have arrived
			partial, full []float32
			held          [][]float32 // withheld values, in link order
			queued        map[int]int // link → values left queued after the prefix
		}
		cases := make([]bucketCase, len(r.owned))
		for i, b := range r.owned {
			c := &cases[i]
			c.items = foldItems(r, b, micros)
			if c.items[0].p != c.items[len(c.items)-1].p {
				straddles++
			}
			grad := b.Grad()
			for k := range grad {
				grad[k] = -7 // stands for the previous step's sum
			}
			c.ready = (3*i + 1) % (len(c.items) + 1)
			c.partial = append([]float32(nil), grad...)
			c.full = make([]float32, len(grad))
			c.queued = map[int]int{}
			gap := -1
			if c.ready < len(c.items) {
				gap = link(c.items[c.ready])
			}
			for j, it := range c.items {
				v := make([]float32, it.hi-it.lo)
				for k := range v {
					v[k] = rng.NormFloat32() * float32(math.Pow(10, float64(k%7-3)))
				}
				first := it.m == 0 && it.g == 0
				stv.AccumInto(c.full[it.lo:it.hi], v, first)
				switch {
				case j < c.ready:
					stv.AccumInto(c.partial[it.lo:it.hi], v, first)
					e.w.reduce[b.Index()][link(it)].send(v)
				case link(it) == gap:
					c.held = append(c.held, v)
				default: // arrived, but after the gap
					e.w.reduce[b.Index()][link(it)].send(v)
					c.queued[link(it)]++
					pastGap++
				}
			}
		}
		r.fold(false)
		for i, b := range r.owned {
			c := &cases[i]
			if !sameBits(b.Grad(), c.partial) {
				t.Errorf("rank %d bucket %d: the non-blocking fold did not fold exactly its %d arrived contributions", r.id, b.Index(), c.ready)
			}
			for src, l := range e.w.reduce[b.Index()] {
				if got := len(l.q) - l.head; got != c.queued[src] {
					t.Errorf("rank %d bucket %d link %d: %d values left queued, want %d", r.id, b.Index(), src, got, c.queued[src])
				}
			}
			want := foldCursor{m: micros}
			if c.ready < len(c.items) {
				it := c.items[c.ready]
				want = foldCursor{it.m, it.p, it.g}
			}
			if r.cursors[i] != want {
				t.Errorf("rank %d bucket %d: cursor %+v after the non-blocking fold, want %+v", r.id, b.Index(), r.cursors[i], want)
			}
			if c.ready < len(c.items) {
				for _, v := range c.held {
					e.w.reduce[b.Index()][link(c.items[c.ready])].send(v)
				}
			}
		}
		r.fold(true)
		for i, b := range r.owned {
			if !sameBits(b.Grad(), cases[i].full) {
				t.Errorf("rank %d bucket %d: the blocking fold's bits differ from the eager per-micro fold's", r.id, b.Index())
			}
			for src, l := range e.w.reduce[b.Index()] {
				if l.head != len(l.q) {
					t.Errorf("rank %d bucket %d link %d: values left after the blocking fold", r.id, b.Index(), src)
				}
			}
			if r.cursors[i] != (foldCursor{}) {
				t.Errorf("rank %d bucket %d: cursor %+v not rewound", r.id, b.Index(), r.cursors[i])
			}
		}
	}
	if straddles == 0 || pastGap == 0 {
		t.Fatalf("%d owned buckets straddle the stage boundary and %d contributions wait past a gap; want both > 0", straddles, pastGap)
	}
}

// TestPipeLastStageBlocksOnlyInLastReduce: at (1,1,2) with M = 4 and
// stage 0's reduce-scatter contributions withheld, the last stage still
// runs its whole schedule up to its last reduce — every boundary
// gradient, micro M−1's included, reaches stage 0 — and then waits in
// that reduce until the contributions arrive. The reduced gradients then
// equal those of an undisturbed run of the same step.
func TestPipeLastStageBlocksOnlyInLastReduce(t *testing.T) {
	const micros = 4
	const deadline = 20 * time.Second
	cfg := shapeConfig(1, 1, 2)
	cfg.BucketElems = 3000
	corpus := data.NewCorpus(64, 11)
	batches := make([]data.Batch, micros)
	for m := range batches {
		batches[m] = corpus.NextBatch(2, 8)
	}
	build := func() *Engine {
		e, err := New(deepGPT(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// issue sends rank id one command over this step's micro-batches,
	// with no verdict to apply and a loss scale of 1.
	issue := func(e *Engine, id int, ops []scheduleOp) {
		e.w.cmd[id] <- command{micros: batches, ops: ops, adam: cfg.Adam, scale: 1}
	}
	await := func(e *Engine, id int, what string) {
		select {
		case <-e.w.results[id]:
		case <-time.After(deadline):
			t.Fatalf("rank %d did not finish %s within %v", id, what, deadline)
		}
	}
	without := func(ops []scheduleOp, drop ...opKind) []scheduleOp {
		return slices.DeleteFunc(ops, func(op scheduleOp) bool { return slices.Contains(drop, op.kind) })
	}
	report := scheduleOp{kind: opReport}

	// The reference: both stages run the step undisturbed, up to the
	// optimizer step.
	ref := build()
	for id := 0; id < 2; id++ {
		issue(ref, id, without(stageSchedule(id, 2, micros), opSpeculate))
	}
	await(ref, 0, "the reference step")
	await(ref, 1, "the reference step")

	e := build()
	owesStage0 := false
	for _, b := range e.ranks[1].owned {
		bo := e.ranks[1].offsets[b.Index()]
		lo, hi := intersectRange(bo, bo+b.Size(), e.ranks[1].spans[0][0], e.ranks[1].spans[0][1])
		owesStage0 = owesStage0 || lo < hi
	}
	if !owesStage0 {
		t.Fatal("the last stage owns no bucket stage 0 contributes to; shrink BucketElems")
	}
	last := stageSchedule(1, 2, micros)
	cut := len(last) - 1
	for last[cut].kind != opReduce {
		cut--
	}
	if last[cut].micro != micros-1 || !slices.Contains(last[:cut], scheduleOp{kind: opSendGrad, micro: micros - 1}) {
		t.Fatalf("the last stage's schedule %v does not send micro %d's gradient before its last reduce", last, micros-1)
	}
	// Stage 0 runs its schedule with its reduces held back; the last
	// stage runs everything before its last reduce. Both must finish.
	issue(e, 0, without(stageSchedule(0, 2, micros), opReduce, opSpeculate))
	issue(e, 1, append(last[:cut:cut], report))
	await(e, 1, "its schedule before the last reduce, with stage 0's contributions withheld")
	await(e, 0, "its backwards")
	// The last reduce cannot finish without stage 0's contributions.
	issue(e, 1, []scheduleOp{last[cut], report})
	select {
	case <-e.w.results[1]:
		t.Fatal("the last stage's last reduce returned before stage 0 sent its contributions")
	default:
	}
	var release []scheduleOp
	for m := 0; m < micros; m++ {
		release = append(release, scheduleOp{kind: opReduce, micro: m})
	}
	issue(e, 0, append(release, report))
	await(e, 0, "its reduces")
	await(e, 1, "its last reduce once stage 0's contributions arrived")
	for bi, b := range e.buckets {
		if !sameBits(b.Grad(), ref.buckets[bi].Grad()) {
			t.Errorf("bucket %d: reduced gradient differs from the undisturbed step's", bi)
		}
	}
	for _, x := range []*Engine{e, ref} {
		if err := x.Close(); err != nil {
			t.Error(err)
		}
	}
}
