package nn

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"superoffload/internal/model"
	"superoffload/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/pass_golden.json from this build's Forward/Backward")

// testAllToAll is a minimal channel collective for driving
// ForwardSPStage / BackwardSPStage from S goroutines in tests.
type testAllToAll struct {
	s  int
	ch [][]chan []float32 // ch[dst][src]
}

func newTestAllToAll(s int) *testAllToAll {
	w := &testAllToAll{s: s, ch: make([][]chan []float32, s)}
	for d := 0; d < s; d++ {
		w.ch[d] = make([]chan []float32, s)
		for src := 0; src < s; src++ {
			w.ch[d][src] = make(chan []float32, 1)
		}
	}
	return w
}

func (w *testAllToAll) fn(rank int) func(send, recv [][]float32) {
	return func(send, recv [][]float32) {
		for d := 0; d < w.s; d++ {
			if d != rank {
				w.ch[d][rank] <- send[d]
			}
		}
		for src := 0; src < w.s; src++ {
			if src != rank {
				recv[src] = <-w.ch[rank][src]
			}
		}
	}
}

// shardSeq extracts rank s's sequence shard of every batch row.
func shardSeq(xs []int, batch, seq, ranks, rank int) []int {
	tl := seq / ranks
	out := make([]int, 0, batch*tl)
	for b := 0; b < batch; b++ {
		out = append(out, xs[b*seq+rank*tl:b*seq+rank*tl+tl]...)
	}
	return out
}

func flatGrads(g *GPT) []float32 {
	out := make([]float32, 0, g.Params().TotalSize())
	for _, p := range g.Params() {
		out = append(out, p.G.Data...)
	}
	return out
}

// runSP executes one sequence-parallel forward/backward over S goroutines
// sharing the model's weights, then replays the weight-gradient ring in
// (batch row, shard) order into a flat buffer. Returns the folded mean
// loss and the reduced gradient.
func runSP(t *testing.T, g *GPT, tokens, targets []int, batch, seq, ranks int, lossScale float64) (float64, []float32) {
	t.Helper()
	world := newTestAllToAll(ranks)
	tl := seq / ranks
	rows := make([][]float64, ranks)
	passes := make([]*Lanes, ranks)
	var wg sync.WaitGroup
	for s := 0; s < ranks; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sp := SP{Rank: s, Ranks: ranks, AllToAll: world.fn(s)}
			toks := shardSeq(tokens, batch, seq, ranks, s)
			tgts := shardSeq(targets, batch, seq, ranks, s)
			passes[s] = &Lanes{}
			rows[s] = passes[s].Forward(g, toks, tgts, batch, tl, sp, 0, 1, nil, 1)
			passes[s].Backward(lossScale, nil)
		}(s)
	}
	wg.Wait()

	// Fold per-row losses in global row order — Forward's fold.
	var loss float64
	for b := 0; b < batch; b++ {
		for s := 0; s < ranks; s++ {
			for tl2 := 0; tl2 < tl; tl2++ {
				loss += rows[s][b*tl+tl2]
			}
		}
	}
	loss /= float64(batch * seq)

	// Ring replay: (batch row, shard) hops visit rows in ascending global
	// order.
	flat := make([]float32, g.Params().TotalSize())
	for b := 0; b < batch; b++ {
		for s := 0; s < ranks; s++ {
			passes[s].Replay(flat, b, b+1)
		}
	}
	return loss, flat
}

// passGolden is one pinned point of testdata/pass_golden.json: the loss
// bits and a crc32 of the flat gradient that the dense single-rank
// implementation (deleted when Forward/Backward became the S=1,
// one-stage case of the sharded pass) produced for this shape and loss
// scale. amd64 only — Go fuses multiply-add elsewhere.
type passGolden struct {
	Batch     int     `json:"batch"`
	Seq       int     `json:"seq"`
	LossScale float64 `json:"loss_scale"`
	LossBits  string  `json:"loss_bits"`
	GradCRC32 string  `json:"grad_crc32"`
}

const passGoldenPath = "testdata/pass_golden.json"

// pin renders a (loss, gradient) pair in the golden's form.
func (pg passGolden) pin(loss float64, grads []float32) passGolden {
	raw := make([]byte, 4*len(grads))
	for i, v := range grads {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	pg.LossBits = fmt.Sprintf("%016x", math.Float64bits(loss))
	pg.GradCRC32 = fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw))
	return pg
}

// TestSPMatchesSingleRank is the nn-level heart of the one-pass design:
// for two shapes × two loss scales, Forward/Backward must reproduce the
// pinned bits of the old dense path, and for S ∈ {1,2,4} the folded loss
// and the ring-reduced gradient must equal Forward/Backward bit for bit.
// Regenerate the pin deliberately with -update.
func TestSPMatchesSingleRank(t *testing.T) {
	cfg := model.Config{Name: "sp", Layers: 2, Hidden: 32, Heads: 4, Vocab: 64}
	var golden []passGolden
	if raw, err := os.ReadFile(passGoldenPath); err == nil {
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	} else if !*update {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	var pinned []passGolden
	for _, shape := range [][2]int{{3, 8}, {2, 4}} {
		batch, seq := shape[0], shape[1]
		for _, scale := range []float64{1, 1024} {
			g := NewGPT(cfg, 8, tensor.NewRNG(11))
			tokens, targets := tinyBatch(g, 5, batch, seq)

			refLoss, cache := g.Forward(tokens, targets, batch, seq)
			g.Params().ZeroGrads()
			g.Backward(cache, scale)
			refGrads := flatGrads(g)
			pin := passGolden{Batch: batch, Seq: seq, LossScale: scale}.pin(refLoss, refGrads)
			pinned = append(pinned, pin)
			if i := len(pinned) - 1; !*update && runtime.GOARCH == "amd64" && (i >= len(golden) || golden[i] != pin) {
				t.Errorf("Forward/Backward drifted from the pinned dense bits: got %+v, golden %+v", pin, golden[min(i, len(golden)-1)])
			}

			for _, ranks := range []int{1, 2, 4} {
				loss, grads := runSP(t, g, tokens, targets, batch, seq, ranks, scale)
				if loss != refLoss {
					t.Errorf("S=%d scale=%v: loss %v != single-rank %v", ranks, scale, loss, refLoss)
				}
				if len(grads) != len(refGrads) {
					t.Fatalf("S=%d: grad size %d != %d", ranks, len(grads), len(refGrads))
				}
				for i := range grads {
					if grads[i] != refGrads[i] {
						t.Fatalf("S=%d scale=%v: gradient diverges at flat index %d: %v vs %v",
							ranks, scale, i, grads[i], refGrads[i])
					}
				}
			}
		}
	}
	if *update {
		raw, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(passGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestValidateSP covers the sharding-arithmetic guards.
func TestValidateSP(t *testing.T) {
	cfg := model.Config{Name: "v", Layers: 1, Hidden: 32, Heads: 4, Vocab: 16}
	g := NewGPT(cfg, 16, tensor.NewRNG(1))
	cases := []struct {
		ranks, seq int
		wantErr    string
	}{
		{0, 8, "must be >= 1"},
		{3, 12, "heads not divisible"},
		{2, 7, "not divisible by 2 sequence ranks"},
		{2, 32, "exceeds max"},
		{2, 8, ""},
		{4, 8, ""},
	}
	for _, c := range cases {
		err := g.ValidateSP(c.ranks, c.seq)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("ValidateSP(%d,%d) = %v, want nil", c.ranks, c.seq, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ValidateSP(%d,%d) = %v, want error containing %q", c.ranks, c.seq, err, c.wantErr)
		}
	}
}

// TestNewGPTRejectsBadHeads: a hidden size the head count does not divide
// must fail loudly instead of silently truncating the head dimension.
func TestNewGPTRejectsBadHeads(t *testing.T) {
	mustPanic := func(name string, cfg model.Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: NewGPT accepted invalid config %+v", name, cfg)
			}
		}()
		NewGPT(cfg, 8, tensor.NewRNG(1))
	}
	mustPanic("indivisible", model.Config{Name: "bad", Layers: 1, Hidden: 30, Heads: 4, Vocab: 16})
	mustPanic("zero-heads", model.Config{Name: "bad", Layers: 1, Hidden: 32, Heads: 0, Vocab: 16})
}

// countingTap is an ActivationTap that only counts, for allocation tests.
type countingTap struct{ stashed, fetched int }

func (c *countingTap) BeginPass(layers, tokens, seq int)      {}
func (c *countingTap) StashLayer(layer int, bufs [][]float32) { c.stashed += len(bufs) }
func (c *countingTap) FetchLayer(layer int)                   { c.fetched++ }

// TestPassAllocatesNothingPerLayerOrHead: after warm-up, a recycled pass
// allocates at most a small fixed count — the cache, its per-layer
// structs, per-head pointer slices, loss rows, tap lists and all-to-all
// payloads are refilled in place, and the tensor kernels allocate nothing.
// Checked at two model sizes so a per-layer or per-head term cannot hide
// in the constant, single-rank (bare and with an activation tap) and at
// S=2 over two goroutines.
func TestPassAllocatesNothingPerLayerOrHead(t *testing.T) {
	const fixed = 2 // allocations allowed per rank and pass
	for _, cfg := range []model.Config{
		{Name: "small", Layers: 1, Hidden: 16, Heads: 2, Vocab: 32},
		{Name: "large", Layers: 3, Hidden: 32, Heads: 4, Vocab: 32},
	} {
		const batch, seq = 3, 8
		g := NewGPT(cfg, seq, tensor.NewRNG(7))
		tokens, targets := tinyBatch(g, 8, batch, seq)

		var tap ActivationTap
		single := func() {
			_, cache := forward(g, tap, tokens, targets, batch, seq)
			g.Params().ZeroGrads()
			g.Backward(cache, 1024)
		}
		want := float64(fixed)
		single()
		if got := testing.AllocsPerRun(5, single); got > want {
			t.Errorf("%s: single-rank pass allocates %v, want <= %v", cfg.Name, got, want)
		}
		counting := &countingTap{}
		tap = counting
		single()
		if got := testing.AllocsPerRun(5, single); got > want {
			t.Errorf("%s: tapped single-rank pass allocates %v, want <= %v", cfg.Name, got, want)
		}
		// AllocsPerRun runs at one P, so count the buffers of a pass at
		// this P's lane count: 11 per layer and lane, plus q, k, v and
		// probs per batch row and head.
		*counting = countingTap{}
		single()
		if lanes := g.lanes.n; counting.fetched != cfg.Layers || counting.stashed != counting.fetched*(11*lanes+4*batch*cfg.Heads) {
			t.Errorf("%s: tap saw %d buffers over %d layer fetches of a %d-lane pass", cfg.Name, counting.stashed, counting.fetched, lanes)
		}

		// S=2: two resident goroutines, each recycling its own cache; the
		// ring replay runs on the test goroutine once both have reported.
		const ranks = 2
		world := newTestAllToAll(ranks)
		passes := []*Lanes{{}, {}}
		start, done := make([]chan struct{}, ranks), make(chan struct{})
		for s := 0; s < ranks; s++ {
			start[s] = make(chan struct{})
			go func(s int) {
				sp := SP{Rank: s, Ranks: ranks, AllToAll: world.fn(s)}
				toks := shardSeq(tokens, batch, seq, ranks, s)
				tgts := shardSeq(targets, batch, seq, ranks, s)
				for range start[s] {
					passes[s].Forward(g, toks, tgts, batch, seq/ranks, sp, 0, 1, nil, 1)
					passes[s].Backward(1024, nil)
					done <- struct{}{}
				}
			}(s)
		}
		flat := make([]float32, g.Params().TotalSize())
		sharded := func() {
			for s := range start {
				start[s] <- struct{}{}
			}
			for range start {
				<-done
			}
			for b := 0; b < batch; b++ {
				for s := range passes {
					passes[s].Replay(flat, b, b+1)
				}
			}
		}
		want = float64(ranks * fixed)
		sharded()
		if got := testing.AllocsPerRun(5, sharded); got > want {
			t.Errorf("%s: S=2 pass allocates %v, want <= %v", cfg.Name, got, want)
		}
		for s := range start {
			close(start[s])
		}
	}
}
