package nn

import (
	"runtime"
	"sync"
)

// GPT.Forward/Backward's lanes. The single-rank pass splits the batch
// into L = min(GOMAXPROCS, batch) lanes of contiguous batch rows and runs
// them side by side against the shared read-only weights. The bits are
// those of one lane:
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
//   - Forward sums the lanes' row losses in row order.
//
// Each lane is its own SP.Tap, through which tapMux shows the model's
// activation tap the L lanes as the one pass it expects.
//
// Lane 0 runs on the caller; lanes 1..L-1 each run one goroutine per
// phase, started as `go l.fn()` from a body built once (a go statement
// with arguments allocates its closure every time), so a steady pass
// allocates nothing for them and no goroutine outlives the call. The
// multi-rank engine's ranks keep one lane each: they already fill the
// cores.

// lane is one contiguous block of batch rows [bLo, bHi) of the pass,
// with the cache it forwards into and the replay units [uLo, uHi) it
// folds.
type lane struct {
	g        *GPT
	sp       SP
	bLo, bHi int
	uLo, uHi int
	cache    *FwdCache
	losses   []float64
	fn       func() // the goroutine body: work, then report to the pass
	failed   any    // a panic recovered on the lane's goroutine

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

// lanes is the single-rank pass state GPT.Forward leaves for Backward.
type lanes struct {
	all   []*lane // every lane built so far; a pass runs all[:n]
	n     int
	wg    sync.WaitGroup
	phase lanePhase

	tokens, targets []int
	seq             int
	lossScale       float64

	mux tapMux

	// want, when > 0, replaces GOMAXPROCS as the lane count — a seam for
	// tests that drive every count on any host.
	want int
}

// split lays the next pass out over the lanes: rows as evenly as
// possible, and replay units by their per-row cost so that each lane's
// share of the replay's work holds about 1/L of it.
func (g *GPT) split(batch int) {
	ls := &g.lanes
	n := runtime.GOMAXPROCS(0)
	if ls.want > 0 {
		n = ls.want
	}
	n = max(1, min(n, batch))
	for len(ls.all) < n {
		l := &lane{g: g}
		l.fn = func() {
			defer ls.wg.Done()
			defer func() { l.failed = recover() }()
			l.work()
		}
		ls.all = append(ls.all, l)
	}
	ls.n = n

	units, total := len(g.Blocks)+2, 0
	for u := range units {
		total += g.replayCost(u)
	}
	u, cum := 0, 0
	for i, l := range ls.all[:n] {
		l.sp = SP{Ranks: 1, batch: batch}
		if g.tap != nil {
			l.sp.Tap = l
		}
		l.bLo, l.bHi = i*batch/n, (i+1)*batch/n
		// A unit goes to the lane whose 1/n share of the work holds the
		// unit's midpoint.
		for l.uLo = u; u < units && (2*cum+g.replayCost(u))*n < 2*total*(i+1); u++ {
			cum += g.replayCost(u)
		}
		l.uHi = u
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
func (ls *lanes) run(phase lanePhase) {
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
func (ls *lanes) join() {
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
	ls := &l.g.lanes
	switch ls.phase {
	case laneForward:
		lo, hi := l.bLo*ls.seq, l.bHi*ls.seq
		l.losses, l.cache = l.g.ForwardSPStage(ls.tokens[lo:hi], ls.targets[lo:hi], l.bHi-l.bLo, ls.seq, &l.sp, 0, 1, nil, l.cache)
	case laneBackward:
		l.g.BackwardSPStage(l.cache, ls.lossScale, &l.sp, nil)
	case laneReplay:
		for u := l.uLo; u < l.uHi; u++ {
			for _, src := range ls.all[:ls.n] {
				src.cache.accumUnit(paramGrad, u, 0, src.cache.batch)
			}
		}
	}
}

// paramGrad is the replay destination of GPT.Backward: the parameter's
// own gradient.
func paramGrad(p *Param) []float32 { return p.G.Data }

// tapMux presents a pass's lanes to the model's ActivationTap as one
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
	ls := &l.g.lanes
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
	m := &l.g.lanes.mux
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
