package nn

import (
	"fmt"
	"sync"

	"superoffload/internal/tensor"
)

// Lanes. A pass splits the batch into L lanes of contiguous batch rows
// and runs them side by side against the shared read-only weights. The
// bits are those of one lane:
//
//   - forward and the dx backward are row-wise, or per (batch row,
//     head), so each lane runs ForwardSPStage/BackwardSPStage over its
//     rows on its own FwdCache and computes what the whole-batch pass
//     computes for those rows; the loss gradient is normalised by the
//     whole batch's row count (SP.batch), not the lane's;
//   - the weight-gradient replay is split by parameter, not by row: each
//     lane folds a contiguous share of the replay units (accumUnit),
//     chaining every lane's cache in row order, so each gradient element
//     sees the same one-add-at-a-time fold over ascending rows;
//   - the row losses come back in row order.
//
// Each lane is its own SP.Tap, through which tapMux shows the holder's
// activation tap the L lanes as the one pass it expects.
//
// Lane 0 runs on the caller; lanes 1..L-1 each run one goroutine per
// phase, started as `go l.fn()` from a body built once (a go statement
// with arguments allocates its closure every time), so a steady pass
// allocates nothing for them and no goroutine outlives the call.
//
// GPT.Forward/Backward run min(GOMAXPROCS, batch) lanes on the model's
// own Lanes; internal/dp's ranks hold one Lanes per micro-batch slot and
// choose the count themselves. More than one lane needs one sequence
// rank and one stage: a lane-split pass has no all-to-all or pipeline
// boundary.

// lane is one contiguous block of batch rows [bLo, bHi) of the pass,
// with the cache it forwards into and the replay units [uLo, uHi) it
// folds.
type lane struct {
	ls       *Lanes
	sp       SP
	bLo, bHi int
	uLo, uHi int
	cache    *FwdCache
	losses   []float64
	fn       func() // the goroutine body: work, then report to the pass
	failed   any    // a panic recovered on the lane's goroutine

	// toFlat hands out the replay destination inside Lanes.flat, from
	// off on; built once, like fn. flatOff is unit uLo's offset there.
	toFlat       func(*Param) []float32
	off, flatOff int

	// stashed holds, per layer, the buffers the lane stashed this pass —
	// its part of what tapMux hands the model's tap.
	stashed [][][]float32
}

type lanePhase uint8

const (
	laneForward lanePhase = iota
	laneBackward
	laneReplay
)

// Lanes is one recycled pass slot split over lanes: Forward leaves it
// for Backward and Replay, and the next Forward takes its caches over in
// place. One goroutine drives it.
type Lanes struct {
	g     *GPT
	all   []*lane // every lane built so far; a pass runs all[:n]
	n     int
	wg    sync.WaitGroup
	phase lanePhase

	tokens, targets []int
	batch, seq      int
	stage, stages   int
	xIn, dOut       *tensor.Tensor
	lossScale       float64
	rows            []float64 // every lane's row losses, in row order

	// flat is Replay's destination, nil when the replay folds onto
	// Params().G, and [rLo, rHi) its batch rows.
	flat     []float32
	rLo, rHi int

	mux tapMux

	// want, when > 0, replaces GOMAXPROCS as GPT.Forward's lane count — a
	// seam for tests that drive every count on any host.
	want int
}

// Forward runs pipeline stage `stage` of `stages` of g over the batch
// (tokens and targets hold batch rows of seq positions of this holder's
// sequence shard, sp its place in the sequence-parallel world and its
// activation tap) on min(lanes, batch) lanes. It returns the per-row
// losses in row order on the final stage, nil on the others; they stay
// valid until the next Forward. More than one lane needs sp.Ranks and
// stages of 1.
func (ls *Lanes) Forward(g *GPT, tokens, targets []int, batch, seq int, sp SP, stage, stages int, xIn *tensor.Tensor, lanes int) []float64 {
	if len(tokens) != batch*seq || len(targets) != batch*seq {
		panic("nn: token/target shape mismatch")
	}
	n := max(1, min(lanes, batch))
	if n > 1 && (sp.Ranks != 1 || stages != 1) {
		panic(fmt.Sprintf("nn: %d lanes need one sequence rank and one stage, not %d and %d", n, sp.Ranks, stages))
	}
	ls.g, ls.stage, ls.stages = g, stage, stages
	ls.split(batch, n, sp)
	if sp.Tap != nil {
		blo, bhi := StageLayers(len(g.Blocks), stage, stages)
		ls.mux.begin(sp.Tap, ls.all[:n], bhi-blo, batch*seq, seq*sp.Ranks)
	}
	ls.tokens, ls.targets, ls.batch, ls.seq, ls.xIn = tokens, targets, batch, seq, xIn
	ls.run(laneForward)
	if stage < stages-1 {
		return nil
	}
	ls.rows = ls.rows[:0]
	for _, l := range ls.all[:n] {
		ls.rows = append(ls.rows, l.losses...)
	}
	return ls.rows
}

// Cache returns the first lane's forward cache: the whole pass's when it
// runs one lane, which is where StageOut and StageDIn read it.
func (ls *Lanes) Cache() *FwdCache { return ls.all[0].cache }

// Backward runs BackwardSPStage on every lane of the last Forward: the
// final stage seeds from its loss gradient scaled by lossScale, an
// earlier one from dOut, the downstream stage's StageDIn.
func (ls *Lanes) Backward(lossScale float64, dOut *tensor.Tensor) {
	ls.lossScale, ls.dOut = lossScale, dOut
	ls.mux.beginBackward()
	ls.run(laneBackward)
}

// Replay folds batch rows [bLo, bHi)'s weight-gradient contributions
// into flat — the stage's StageParamSpan in registration order —
// continuing whatever accumulation it carries, with each replay unit on
// one lane over every lane's rows in order. Chaining calls in (batch
// row, sequence shard) order visits rows in ascending global row order,
// so the completed buffer is the unsharded gradient bit for bit; at S=1
// the chain is one call over every row.
func (ls *Lanes) Replay(flat []float32, bLo, bHi int) {
	lo, hi := ls.g.StageParamSpan(ls.stage, ls.stages)
	if len(flat) != hi-lo {
		panic(fmt.Sprintf("nn: flat gradient buffer %d, want %d", len(flat), hi-lo))
	}
	ls.replay(flat, bLo, bHi)
}

// replay runs the replay phase over rows [bLo, bHi) into flat, or onto
// Params().G when flat is nil.
func (ls *Lanes) replay(flat []float32, bLo, bHi int) {
	ls.flat, ls.rLo, ls.rHi = flat, bLo, bHi
	defer func() { ls.flat = nil }()
	ls.run(laneReplay)
}

// split lays the next pass out over n lanes: rows as evenly as possible,
// and replay units by their per-row cost so that each lane's share of
// the replay's work holds about 1/n of it.
func (ls *Lanes) split(batch, n int, sp SP) {
	g := ls.g
	for len(ls.all) < n {
		l := &lane{ls: ls}
		l.fn = func() {
			defer ls.wg.Done()
			defer func() { l.failed = recover() }()
			l.work()
		}
		l.toFlat = func(p *Param) []float32 {
			s := ls.flat[l.off : l.off+p.Size()]
			l.off += p.Size()
			return s
		}
		ls.all = append(ls.all, l)
	}
	ls.n = n

	sp.batch = batch
	// A stage's units are its blocks plus, on the first and last stage,
	// the embeddings and the head; costs are one-stage, which is all
	// more than one lane runs.
	blo, bhi := StageLayers(len(g.Blocks), ls.stage, ls.stages)
	units, total := bhi-blo, 0
	if ls.stage == 0 {
		units++
	}
	if ls.stage == ls.stages-1 {
		units++
	}
	for u := range units {
		total += g.replayCost(u)
	}
	u, cum := 0, 0
	for i, l := range ls.all[:n] {
		l.sp = sp
		if sp.Tap != nil {
			l.sp.Tap = l
		}
		l.bLo, l.bHi = i*batch/n, (i+1)*batch/n
		// A unit goes to the lane whose 1/n share of the work holds the
		// unit's midpoint.
		for l.uLo = u; u < units && (2*cum+g.replayCost(u))*n < 2*total*(i+1); u++ {
			cum += g.replayCost(u)
		}
		l.uHi = u
		if l.uLo == l.uHi {
			continue // a lane with no unit replays nothing
		}
		// Unit uLo opens with the embeddings on stage 0, with block
		// blo+uLo-1 (or the head, past the last block) there and with
		// block blo+uLo on later stages.
		first, b := 0, blo+l.uLo
		if ls.stage == 0 {
			b--
		}
		if b >= 0 {
			first = embParams + b*blockParams
		}
		spanLo, _ := g.StageParamSpan(ls.stage, ls.stages)
		l.flatOff = g.paramOffsetAt(first) - spanLo
	}
}

// replayCost is the one-stage replay unit u's work per data row: the
// gradient elements one row's fold touches — a token and a position
// embedding row for unit 0, every element of every parameter for a
// block and for the final layernorm and head.
func (g *GPT) replayCost(u int) int {
	switch {
	case u == 0:
		return 2 * g.Cfg.Hidden
	case u <= len(g.Blocks):
		return g.params[embParams+(u-1)*blockParams:][:blockParams].TotalSize()
	default:
		return g.params[embParams+len(g.Blocks)*blockParams:].TotalSize()
	}
}

// run executes one phase on every lane of the pass: lane 0 on the caller,
// the others on one goroutine each. It returns once every lane is done;
// a panic on a lane's goroutine is raised again here, on the caller.
func (ls *Lanes) run(phase lanePhase) {
	ls.phase = phase
	active := ls.all[:ls.n]
	ls.wg.Add(len(active) - 1)
	for _, l := range active[1:] {
		go l.fn()
	}
	defer ls.join()
	active[0].work()
}

// join waits for the lanes' goroutines and re-raises the first panic one
// of them recovered.
func (ls *Lanes) join() {
	ls.wg.Wait()
	var failed any
	for _, l := range ls.all[:ls.n] {
		if failed == nil {
			failed = l.failed
		}
		l.failed = nil
	}
	if failed != nil {
		panic(failed)
	}
}

// work runs the pass's current phase for this lane.
func (l *lane) work() {
	ls := l.ls
	switch ls.phase {
	case laneForward:
		lo, hi := l.bLo*ls.seq, l.bHi*ls.seq
		l.losses, l.cache = ls.g.ForwardSPStage(ls.tokens[lo:hi], ls.targets[lo:hi], l.bHi-l.bLo, ls.seq, &l.sp, ls.stage, ls.stages, ls.xIn, l.cache)
	case laneBackward:
		ls.g.BackwardSPStage(l.cache, ls.lossScale, &l.sp, ls.dOut)
	case laneReplay:
		next := paramGrad
		if ls.flat != nil {
			next = l.toFlat
		}
		// Each element's adds come lane by lane, in row order.
		for _, src := range ls.all[:ls.n] {
			lo, hi := max(ls.rLo, src.bLo)-src.bLo, min(ls.rHi, src.bHi)-src.bLo
			l.off = l.flatOff
			for u := l.uLo; u < l.uHi && lo < hi; u++ {
				src.cache.accumUnit(next, u, lo, hi)
			}
		}
	}
}

// paramGrad is the replay destination of GPT.Backward: the parameter's
// own gradient.
func paramGrad(p *Param) []float32 { return p.G.Data }

// tapMux presents a pass's lanes to the holder's ActivationTap as one
// pass, making exactly the calls a one-lane pass makes:
//
//   - Forward opens the pass (begin) before the lanes start; a lane's own
//     BeginPass does nothing;
//   - the last lane to stash layer l hands the tap every lane's buffers
//     for it, in lane order. That lane reaches layer l+1 only after the
//     call returns, so layers arrive in ascending order, and no lane ever
//     waits: when the tap spills layer l-W, every lane is past layer l;
//   - the first lane to reach FetchLayer(l) makes the call and the others
//     wait for it to return. Every buffer is in exactly one layer's list
//     (actBufs), so restoring layer l touches nothing a lane still on
//     layer l+1 reads, and the fetch of l-1 follows that of l.
//
// The real calls run outside mu, one at a time: each is ordered after the
// previous one through mu, so the tap needs no locking of its own. A
// panic in one of them is latched and raised, with the same value, on
// every lane that calls in after it or waits on it, so no lane hangs and
// lanes.join reports the root cause whichever lane it picks.
type tapMux struct {
	tap     ActivationTap
	mu      sync.Mutex
	fetched sync.Cond     // broadcast whenever a call into the tap returns
	stashes []int         // per layer: lanes that have stashed it this pass
	bufs    [][][]float32 // per layer: every lane's buffers, in lane order

	// Backward fetches the layers top down: every layer above fetchNext
	// is restored, and fetching says a lane is in its FetchLayer.
	fetchNext int
	fetching  bool
	failed    any // the panic of a call into the tap this pass
}

// begin opens a pass of the given depth over the lanes on the tap.
func (m *tapMux) begin(tap ActivationTap, lanes []*lane, layers, tokens, seq int) {
	m.tap, m.failed = tap, nil
	m.fetched.L = &m.mu
	if len(m.stashes) != layers {
		m.stashes = make([]int, layers)
		m.bufs = make([][][]float32, layers)
	}
	clear(m.stashes)
	for _, l := range lanes {
		if len(l.stashed) != layers {
			l.stashed = make([][][]float32, layers)
		}
	}
	tap.BeginPass(layers, tokens, seq)
}

// beginBackward readies the fetches of a Backward of the pass.
func (m *tapMux) beginBackward() {
	m.fetchNext, m.fetching, m.failed = len(m.stashes)-1, false, nil
}

// settle ends a call into the tap: it latches the panic unwinding through
// the call, if any, moves a fetch on and wakes the lanes waiting on it.
func (m *tapMux) settle(fetch bool) {
	r := recover()
	m.mu.Lock()
	if r != nil {
		m.failed = r
	} else if fetch {
		m.fetchNext--
	}
	m.fetching = false
	m.fetched.Broadcast()
	m.mu.Unlock()
	if r != nil {
		panic(r)
	}
}

// raiseLocked unlocks mu and, if a call into the tap has failed this
// pass, raises its panic on the calling lane.
func (m *tapMux) raiseLocked() {
	failed := m.failed
	m.mu.Unlock()
	if failed != nil {
		panic(failed)
	}
}

// BeginPass is the lane's part of the pass tapMux.begin opened: nothing.
func (l *lane) BeginPass(layers, tokens, seq int) {}

// StashLayer records the lane's buffers for the layer; the last lane to
// stash it hands the tap every lane's.
func (l *lane) StashLayer(layer int, bufs [][]float32) {
	ls := l.ls
	m := &ls.mux
	l.stashed[layer] = bufs
	m.mu.Lock()
	m.stashes[layer]++
	last := m.stashes[layer] == ls.n
	m.raiseLocked()
	if !last {
		return
	}
	all := m.bufs[layer][:0]
	for _, o := range ls.all[:ls.n] {
		all = append(all, o.stashed[layer]...)
	}
	m.bufs[layer] = all
	defer m.settle(false)
	m.tap.StashLayer(layer, all)
}

// FetchLayer returns once the tap has restored the layer: the first lane
// to reach it makes the call, the others wait for it.
func (l *lane) FetchLayer(layer int) {
	m := &l.ls.mux
	m.mu.Lock()
	for m.fetching && layer == m.fetchNext {
		m.fetched.Wait()
	}
	first := layer == m.fetchNext && m.failed == nil
	if first {
		m.fetching = true
	}
	m.raiseLocked()
	if !first {
		return
	}
	defer m.settle(true)
	m.tap.FetchLayer(layer)
}
