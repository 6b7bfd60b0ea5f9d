package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"superoffload/internal/model"
	"superoffload/internal/tensor"
)

// forward is g.Forward, or under an activation tap the same pass run as
// a rank runs it: Lanes.Forward over the model's own lanes with
// SP{Ranks: 1, Tap: tap}. g.Backward takes the cache either way.
func forward(g *GPT, tap ActivationTap, tokens, targets []int, batch, seq int) (float64, *FwdCache) {
	if tap == nil {
		return g.Forward(tokens, targets, batch, seq)
	}
	n := g.lanes.want
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var loss float64
	for _, r := range g.lanes.Forward(g, tokens, targets, batch, seq, SP{Ranks: 1, Tap: tap}, 0, 1, nil, n) {
		loss += r
	}
	return loss / float64(batch*seq), g.lanes.Cache()
}

// lanePass runs two micro-batches through forward (under tap, when not
// nil) and Backward at the given lane count, accumulating both into
// zeroed gradients, and returns the two losses and the flat gradient.
func lanePass(t *testing.T, g *GPT, lanes int, tap ActivationTap, micro [2][2][]int, batch, seq int, scale float64) ([2]float64, []float32) {
	t.Helper()
	g.lanes.want = lanes
	defer func() { g.lanes.want = 0 }()
	g.Params().ZeroGrads()
	var losses [2]float64
	for m, mb := range micro {
		var cache *FwdCache
		losses[m], cache = forward(g, tap, mb[0], mb[1], batch, seq)
		if g.lanes.n != lanes {
			t.Fatalf("the pass ran %d lanes, want %d", g.lanes.n, lanes)
		}
		g.Backward(cache, scale)
	}
	return losses, flatGrads(g)
}

// matchOneLane reports the first loss or gradient element whose bits differ
// from the reference's.
func matchOneLane(t *testing.T, what string, loss, refLoss [2]float64, grads, refGrads []float32) {
	t.Helper()
	for m := range loss {
		if math.Float64bits(loss[m]) != math.Float64bits(refLoss[m]) {
			t.Errorf("%s, micro-batch %d: loss %v, one lane %v", what, m, loss[m], refLoss[m])
		}
	}
	for i := range grads {
		if math.Float32bits(grads[i]) != math.Float32bits(refGrads[i]) {
			t.Errorf("%s: gradient diverges at flat index %d: %v vs %v", what, i, grads[i], refGrads[i])
			return
		}
	}
}

// TestLanesMatchOneLane: Forward/Backward over any lane count give the
// loss and every gradient bit of one lane, at every batch 1–5, with and
// without loss scaling, accumulated over two Backward calls. Odd batches
// split into unequal lanes, where a loss normalised by the lane's rows
// instead of the batch's would show. The second model's head outweighs
// the rest of the replay, so the lanes after the one that folds it fold
// no unit.
func TestLanesMatchOneLane(t *testing.T) {
	for _, cfg := range []model.Config{
		{Name: "lanes", Layers: 2, Hidden: 32, Heads: 4, Vocab: 48},
		{Name: "heavy-head", Layers: 1, Hidden: 8, Heads: 2, Vocab: 4096},
	} {
		const seq = 8
		g := NewGPT(cfg, seq, tensor.NewRNG(17))
		for batch := 1; batch <= 5; batch++ {
			var micro [2][2][]int
			for m := range micro {
				micro[m][0], micro[m][1] = tinyBatch(g, uint64(100+10*batch+m), batch, seq)
			}
			for _, scale := range []float64{1, 1024} {
				refLoss, refGrads := lanePass(t, g, 1, nil, micro, batch, seq, scale)
				for lanes := 2; lanes <= batch; lanes++ {
					loss, grads := lanePass(t, g, lanes, nil, micro, batch, seq, scale)
					matchOneLane(t, fmt.Sprintf("%s: batch %d, %d lanes, scale %v", cfg.Name, batch, lanes, scale), loss, refLoss, grads, refGrads)
				}
			}
		}
	}
}

// strictTap mimics act.Store with a window of two layers: stashing layer
// l copies layer l-2 out and NaN-poisons it, and fetching a spilled layer
// restores it after a read's latency. It fails the test on any call that
// breaks the one-pass protocol: a pass other than the whole batch's, a
// pass begun before the last one fetched every layer, a layer stashed or
// fetched twice or out of order, stashed bytes other than the one-lane
// pass's, or two calls at once.
type strictTap struct {
	t                   *testing.T
	layers, tokens, seq int
	wantBytes           int // per layer, as a one-lane pass stashes it
	busy                sync.Mutex
	bufs                [][][]float32
	saved               [][]float32 // per layer: the spilled copy, nil while resident
	nextFetch           int         // -1 once the pass fetched every layer
}

func (s *strictTap) enter() func() {
	if !s.busy.TryLock() {
		s.t.Error("two calls into the tap at once")
		return func() {}
	}
	return s.busy.Unlock
}

func (s *strictTap) BeginPass(layers, tokens, seq int) {
	defer s.enter()()
	if layers != s.layers || tokens != s.tokens || seq != s.seq {
		s.t.Errorf("BeginPass(%d, %d, %d), want the whole batch's (%d, %d, %d)", layers, tokens, seq, s.layers, s.tokens, s.seq)
	}
	if s.nextFetch != -1 {
		s.t.Errorf("a pass begins with layer %d of the last one never fetched", s.nextFetch)
	}
	s.bufs, s.nextFetch = s.bufs[:0], s.layers-1
	s.saved = make([][]float32, s.layers)
}

func (s *strictTap) StashLayer(l int, bufs [][]float32) {
	defer s.enter()()
	if l != len(s.bufs) {
		s.t.Errorf("stash of layer %d after %d layers", l, len(s.bufs))
		return
	}
	bytes := 0
	for _, b := range bufs {
		bytes += 4 * len(b)
	}
	if bytes != s.wantBytes {
		s.t.Errorf("layer %d stashes %d bytes, a one-lane pass %d", l, bytes, s.wantBytes)
	}
	s.bufs = append(s.bufs, bufs)
	if spill := l - 2; spill >= 0 {
		for _, b := range s.bufs[spill] {
			s.saved[spill] = append(s.saved[spill], b...)
			for i := range b {
				b[i] = float32(math.NaN())
			}
		}
	}
}

func (s *strictTap) FetchLayer(l int) {
	defer s.enter()()
	if l != s.nextFetch || len(s.bufs) != s.layers {
		s.t.Errorf("fetch of layer %d, want %d after %d of %d layers stashed", l, s.nextFetch, len(s.bufs), s.layers)
		return
	}
	s.nextFetch--
	if src := s.saved[l]; src != nil {
		// A read takes time: a lane that does not wait for the fetch reads
		// the poison.
		time.Sleep(200 * time.Microsecond)
		for _, b := range s.bufs[l] {
			src = src[copy(b, src):]
		}
	}
}

// TestLanesUnderTapMatchOneLane: with an activation tap attached, any lane
// count keeps the loss and every gradient bit of one lane without a tap,
// and the tap sees one pass per Forward — the whole batch's, each layer
// stashed once in ascending order with a one-lane pass's bytes and
// fetched once in descending order — while it spills and restores the
// layers behind its window, at every batch 1–5, with and without loss
// scaling, accumulated over two Backward calls.
func TestLanesUnderTapMatchOneLane(t *testing.T) {
	cfg := model.Config{Name: "tapped", Layers: 4, Hidden: 32, Heads: 4, Vocab: 48}
	const seq = 8
	g := NewGPT(cfg, seq, tensor.NewRNG(19))
	hs := cfg.Hidden / cfg.Heads
	for batch := 1; batch <= 5; batch++ {
		var micro [2][2][]int
		for m := range micro {
			micro[m][0], micro[m][1] = tinyBatch(g, uint64(200+10*batch+m), batch, seq)
		}
		rows := batch * seq
		tap := &strictTap{
			t: t, layers: cfg.Layers, tokens: rows, seq: seq, nextFetch: -1,
			// Per row: ln1 input and output, attention output, res1, ln2
			// output (c each), the W1 output's gelu′ and gelu (4c each) and
			// two layernorms' mean and 1/std; per (row, head): q, k, v and
			// a row of probabilities.
			wantBytes: 4 * (rows*(13*cfg.Hidden+4) + batch*cfg.Heads*seq*(3*hs+seq)),
		}
		for _, scale := range []float64{1, 1024} {
			refLoss, refGrads := lanePass(t, g, 1, nil, micro, batch, seq, scale)
			for lanes := 1; lanes <= batch; lanes++ {
				loss, grads := lanePass(t, g, lanes, tap, micro, batch, seq, scale)
				if tap.nextFetch != -1 {
					t.Errorf("batch %d, %d lanes: layer %d was never fetched", batch, lanes, tap.nextFetch)
				}
				matchOneLane(t, fmt.Sprintf("tapped, batch %d, %d lanes, scale %v", batch, lanes, scale), loss, refLoss, grads, refGrads)
			}
		}
	}
}

// TestLanesSplitTheReplay: every replay unit belongs to exactly one lane,
// in order, and with two lanes over a model of equal blocks neither
// lane's share of the replay's work exceeds the other's by more than one
// block.
func TestLanesSplitTheReplay(t *testing.T) {
	cfg := model.Config{Name: "split", Layers: 4, Hidden: 32, Heads: 4, Vocab: 32}
	g := NewGPT(cfg, 8, tensor.NewRNG(3))
	units := len(g.Blocks) + 2
	for lanes := 1; lanes <= 6; lanes++ {
		g.lanes.want = lanes
		tokens, targets := tinyBatch(g, 6, 6, 8)
		g.Forward(tokens, targets, 6, 8)
		next, work := 0, make([]int, lanes)
		for i, l := range g.lanes.all[:lanes] {
			if l.uLo != next || l.uHi < l.uLo {
				t.Fatalf("%d lanes: lane %d folds units [%d,%d), want it to open at %d", lanes, i, l.uLo, l.uHi, next)
			}
			for u := l.uLo; u < l.uHi; u++ {
				work[i] += g.replayCost(u)
			}
			next = l.uHi
		}
		if next != units {
			t.Fatalf("%d lanes fold units [0,%d), want [0,%d)", lanes, next, units)
		}
		if lanes == 2 {
			if d := work[0] - work[1]; d > g.replayCost(1) || -d > g.replayCost(1) {
				t.Errorf("two lanes fold %d and %d elements per row: more than a block (%d) apart", work[0], work[1], g.replayCost(1))
			}
		}
	}
}

// TestLanesAllocateNothing: a recycled pass over 2, 3 or 4 lanes allocates
// no more than one over a single lane — each lane goroutine starts from a
// body built once, and each lane recycles its own cache — and so does one
// under an activation tap, whose multiplexer reuses its per-layer lists.
func TestLanesAllocateNothing(t *testing.T) {
	cfg := model.Config{Name: "alloc", Layers: 2, Hidden: 32, Heads: 4, Vocab: 32}
	const batch, seq = 4, 8
	g := NewGPT(cfg, seq, tensor.NewRNG(5))
	tokens, targets := tinyBatch(g, 6, batch, seq)
	var tap ActivationTap
	pass := func() {
		_, cache := forward(g, tap, tokens, targets, batch, seq)
		g.Params().ZeroGrads()
		g.Backward(cache, 1024)
	}
	allocs := func(lanes int) float64 {
		g.lanes.want = lanes
		pass()
		return testing.AllocsPerRun(5, pass)
	}
	one := allocs(1)
	for lanes := 2; lanes <= batch; lanes++ {
		if got := allocs(lanes); got > one {
			t.Errorf("a %d-lane pass allocates %v, a one-lane pass %v", lanes, got, one)
		}
	}
	tap = &countingTap{}
	for lanes := 1; lanes <= batch; lanes++ {
		if got := allocs(lanes); got > one {
			t.Errorf("a tapped %d-lane pass allocates %v, a one-lane pass %v", lanes, got, one)
		}
	}
}

// TestLanesShareTheBandPool: at a shape whose products exceed
// parallelThreshold, lanes submit bands to tensor's matmul pool side by
// side and still give one lane's bits (run it under -race too).
func TestLanesShareTheBandPool(t *testing.T) {
	if testing.Short() {
		t.Skip("hidden-256, 8 × 128-token pass")
	}
	cfg := model.Config{Name: "bands", Layers: 1, Hidden: 256, Heads: 4, Vocab: 64}
	const batch, seq = 8, 128
	g := NewGPT(cfg, seq, tensor.NewRNG(23))
	var micro [2][2][]int
	for m := range micro {
		micro[m][0], micro[m][1] = tinyBatch(g, uint64(31+m), batch, seq)
	}
	refLoss, refGrads := lanePass(t, g, 1, nil, micro, batch, seq, 1024)
	loss, grads := lanePass(t, g, 2, nil, micro, batch, seq, 1024)
	matchOneLane(t, "two lanes", loss, refLoss, grads, refGrads)
}

// failingTap panics, once armed, in the call into the given layer: the
// stash if stash is set, the fetch otherwise. The fetch lingers first, so
// the other lane reaches the layer and waits on it.
type failingTap struct {
	layer int
	stash bool
	armed bool
}

func (f *failingTap) BeginPass(layers, tokens, seq int) {}

func (f *failingTap) StashLayer(l int, bufs [][]float32) {
	if f.armed && f.stash && l == f.layer {
		f.armed = false
		panic(fmt.Sprintf("tap: stash of layer %d failed", l))
	}
}

func (f *failingTap) FetchLayer(l int) {
	if f.armed && !f.stash && l == f.layer {
		f.armed = false
		time.Sleep(20 * time.Millisecond)
		panic(fmt.Sprintf("tap: fetch of layer %d failed", l))
	}
}

// TestLanePanicReachesTheCaller: a bad token in a row another lane's
// goroutine forwards, or a tap that fails a stash or a fetch under two
// lanes, panics on the caller — with the tap's own value — where it can
// be recovered. No lane is left waiting on the failed fetch or computes
// past it, and the model's next pass gives the bits of a model that never
// saw the failure.
func TestLanePanicReachesTheCaller(t *testing.T) {
	g, fresh := tinyModel(2), tinyModel(2)
	g.lanes.want, fresh.lanes.want = 2, 2
	tokens, targets := tinyBatch(g, 3, 2, 4)
	bad := append([]int(nil), tokens...)
	bad[len(bad)-1] = g.Cfg.Vocab
	// fails runs pass and returns what it panicked with, failing the test
	// if it returns normally or not within a few seconds.
	fails := func(what string, pass func()) any {
		t.Helper()
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			pass()
			t.Errorf("%s did not panic", what)
		}()
		select {
		case r := <-done:
			return r
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: a lane is still blocked after 10 s", what)
			return nil
		}
	}
	fails("a bad token in lane 1", func() { g.Forward(bad, targets, 2, 4) })

	tap := &failingTap{}
	for _, stash := range []bool{true, false} {
		for layer := len(g.Blocks) - 1; layer >= 0; layer-- {
			*tap = failingTap{layer: layer, stash: stash, armed: true}
			call := "fetch"
			if stash {
				call = "stash"
			}
			what := fmt.Sprintf("a failed %s of layer %d", call, layer)
			r := fails(what, func() {
				_, cache := forward(g, tap, tokens, targets, 2, 4)
				g.Backward(cache, 1)
			})
			if want := fmt.Sprintf("tap: %s of layer %d failed", call, layer); r != want {
				t.Errorf("%s: the caller recovered %v, want the tap's %q", what, r, want)
			}
			if stash {
				continue
			}
			// Backward fills a layer's d-outputs after its fetch: from the
			// failed layer down, no lane of this first Backward has any.
			for i, l := range g.lanes.all[:g.lanes.n] {
				for below := 0; below <= layer; below++ {
					if l.cache.layers[below].dh2 != nil {
						t.Errorf("%s: lane %d went on to layer %d's backward", what, i, below)
					}
				}
			}
		}
	}

	for m, mtap := range map[*GPT]ActivationTap{g: tap, fresh: nil} {
		_, cache := forward(m, mtap, tokens, targets, 2, 4)
		m.Backward(cache, 1)
	}
	want := flatGrads(fresh)
	for i, v := range flatGrads(g) {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("after a lane panic, gradient diverges at flat index %d: %v vs %v", i, v, want[i])
		}
	}
}
