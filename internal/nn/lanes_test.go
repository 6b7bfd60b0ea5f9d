package nn

import (
	"fmt"
	"math"
	"testing"

	"superoffload/internal/model"
	"superoffload/internal/tensor"
)

// lanePass runs two micro-batches through Forward/Backward at the given
// lane count, accumulating both into zeroed gradients, and returns the
// two losses and the flat gradient.
func lanePass(t *testing.T, g *GPT, lanes int, micro [2][2][]int, batch, seq int, scale float64) ([2]float64, []float32) {
	t.Helper()
	g.lanes.want = lanes
	defer func() { g.lanes.want = 0 }()
	g.Params().ZeroGrads()
	var losses [2]float64
	for m, mb := range micro {
		var cache *FwdCache
		losses[m], cache = g.Forward(mb[0], mb[1], batch, seq)
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
// instead of the batch's would show.
func TestLanesMatchOneLane(t *testing.T) {
	cfg := model.Config{Name: "lanes", Layers: 2, Hidden: 32, Heads: 4, Vocab: 48}
	const seq = 8
	g := NewGPT(cfg, seq, tensor.NewRNG(17))
	for batch := 1; batch <= 5; batch++ {
		var micro [2][2][]int
		for m := range micro {
			micro[m][0], micro[m][1] = tinyBatch(g, uint64(100+10*batch+m), batch, seq)
		}
		for _, scale := range []float64{1, 1024} {
			refLoss, refGrads := lanePass(t, g, 1, micro, batch, seq, scale)
			for lanes := 2; lanes <= batch; lanes++ {
				loss, grads := lanePass(t, g, lanes, micro, batch, seq, scale)
				matchOneLane(t, fmt.Sprintf("batch %d, %d lanes, scale %v", batch, lanes, scale), loss, refLoss, grads, refGrads)
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
		g.split(6)
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
// body built once, and each lane recycles its own cache.
func TestLanesAllocateNothing(t *testing.T) {
	cfg := model.Config{Name: "alloc", Layers: 2, Hidden: 32, Heads: 4, Vocab: 32}
	const batch, seq = 4, 8
	g := NewGPT(cfg, seq, tensor.NewRNG(5))
	tokens, targets := tinyBatch(g, 6, batch, seq)
	pass := func() {
		_, cache := g.Forward(tokens, targets, batch, seq)
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
	refLoss, refGrads := lanePass(t, g, 1, micro, batch, seq, 1024)
	loss, grads := lanePass(t, g, 2, micro, batch, seq, 1024)
	matchOneLane(t, "two lanes", loss, refLoss, grads, refGrads)
}

// TestLanePanicReachesTheCaller: a bad token in a row another lane's
// goroutine forwards panics on the caller, where it can be recovered,
// and the model's next pass gives the bits of a model that never saw it.
func TestLanePanicReachesTheCaller(t *testing.T) {
	g, fresh := tinyModel(2), tinyModel(2)
	g.lanes.want, fresh.lanes.want = 2, 2
	tokens, targets := tinyBatch(g, 3, 2, 4)
	bad := append([]int(nil), tokens...)
	bad[len(bad)-1] = g.Cfg.Vocab
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a bad token in lane 1 did not panic")
			}
		}()
		g.Forward(bad, targets, 2, 4)
	}()
	for _, m := range []*GPT{g, fresh} {
		_, cache := m.Forward(tokens, targets, 2, 4)
		m.Backward(cache, 1)
	}
	want := flatGrads(fresh)
	for i, v := range flatGrads(g) {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("after a lane panic, gradient diverges at flat index %d: %v vs %v", i, v, want[i])
		}
	}
}
