package dp

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/place"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

func tinyGPT(seed uint64) *nn.GPT {
	// 4 heads so the sequence axis can shard across S ∈ {1,2,4}.
	cfg := model.Config{Name: "t", Layers: 2, Hidden: 32, Heads: 4, Vocab: 64}
	return nn.NewGPT(cfg, 16, tensor.NewRNG(seed))
}

// deepGPT has 4 transformer blocks so the depth splits across P ∈ {1,2,4}.
func deepGPT(seed uint64) *nn.GPT {
	cfg := model.Config{Name: "p", Layers: 4, Hidden: 32, Heads: 4, Vocab: 64}
	return nn.NewGPT(cfg, 16, tensor.NewRNG(seed))
}

// shapeConfig is an (R,S,P) engine config with several buckets for the
// tiny models.
func shapeConfig(r, s, p int) Config {
	a := optim.DefaultConfig()
	a.LR = 3e-3
	return Config{Config: stv.Config{Adam: a, ClipNorm: 1.0, BucketElems: 20000}, Ranks: r, SeqRanks: s, PipeRanks: p}
}

// The construction- and step-time guards, one shape per test.
func TestEngineValidation(t *testing.T) { checkGuards(t, s211) }
func TestSPValidation(t *testing.T)     { checkGuards(t, s121) }
func TestMeshValidation(t *testing.T)   { checkGuards(t, s221) }
func TestPipeValidation(t *testing.T)   { checkGuards(t, s222) }

// checkGuards: in shape sh, New rejects a nil model, every shape the
// model cannot take, a plan sized for another partition and an unknown
// mode, and the zero
// shape is (1,1,1); Step rejects every malformed batch as an error in the
// caller's goroutine, not a rank-goroutine panic, and leaves the engine
// usable; after Close, Close is a no-op and every other entry point errors.
func checkGuards(t *testing.T, sh shape) {
	if _, err := New(nil, shapeConfig(sh.R, sh.S, sh.P)); err == nil {
		t.Error("nil model accepted")
	}
	// deepGPT's 4 heads cannot split 3 ways, nor its 4 blocks 5 ways.
	// Both are *data.ConfigErrors naming the MeshConfig axis, as a bad
	// batch below names its Batch field.
	for _, bad := range []shape{{-1, sh.S, sh.P}, {sh.R, -1, sh.P}, {sh.R, sh.S, -1}, {sh.R, 3, sh.P}, {sh.R, sh.S, 5}} {
		e, err := New(deepGPT(1), shapeConfig(bad.R, bad.S, bad.P))
		if err == nil {
			e.Close()
		}
		if !namesField(err, "MeshConfig.") {
			t.Errorf("shape %v: %v, want a *data.ConfigError naming a MeshConfig axis", bad, err)
		}
	}
	one, err := New(deepGPT(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Ranks() != 1 || one.SeqRanks() != 1 || one.PipeRanks() != 1 {
		t.Errorf("zero shape = (%d,%d,%d), want (1,1,1)", one.Ranks(), one.SeqRanks(), one.PipeRanks())
	}
	one.Close()

	eng, err := New(deepGPT(1), shapeConfig(sh.R, sh.S, sh.P))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := (shape{eng.Ranks(), eng.SeqRanks(), eng.PipeRanks()}); got != sh || eng.NumBuckets() < 2 {
		t.Errorf("built %v with %d buckets, want %v with several", got, eng.NumBuckets(), sh)
	}
	misfit := shapeConfig(sh.R, sh.S, sh.P)
	plan := place.GPUTail(eng.NumBuckets()+1, 1)
	misfit.Placement = &plan
	if e, err := New(deepGPT(1), misfit); err == nil {
		e.Close()
		t.Error("placement plan for another partition accepted")
	}
	unknown := shapeConfig(sh.R, sh.S, sh.P)
	unknown.Mode = stv.Mode(99)
	if e, err := New(deepGPT(1), unknown); err == nil {
		e.Close()
		t.Error("unknown mode accepted")
	}
	corpus := data.NewCorpus(64, 1)
	short := corpus.NextBatch(sh.R, 8)
	short.Tokens = short.Tokens[:len(short.Tokens)-1]
	bad := map[string]data.Batch{"sequence exceeding MaxSeq": corpus.NextBatch(sh.R, 32), "too few tokens": short}
	if sh.R > 1 {
		bad["rows not divisible by R"] = corpus.NextBatch(sh.R+1, 8)
	}
	if sh.S > 1 {
		bad["sequence not divisible by S"] = corpus.NextBatch(sh.R, 7)
	}
	for what, b := range bad {
		if _, err := eng.Step(b); !namesField(err, "Batch.") {
			t.Errorf("%s: %v, want a *data.ConfigError naming a Batch field", what, err)
		}
	}
	if _, err := eng.StepAccum([]data.Batch{corpus.NextBatch(sh.R, 8), short}); err == nil {
		t.Error("accumulation window with a malformed batch accepted")
	}
	if l, err := eng.StepAccum(nil); err != nil || l != 0 {
		t.Errorf("empty window: %v %v", l, err)
	}
	if _, err := eng.Step(corpus.NextBatch(sh.R, 8)); err != nil {
		t.Fatalf("engine unusable after rejected batches: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close not idempotent: %v", err)
	}
	_, stepErr := eng.Step(corpus.NextBatch(sh.R, 8))
	_, flushErr := eng.Flush()
	for what, err := range map[string]error{"Step": stepErr, "Flush": flushErr, "Save": eng.Save(&bytes.Buffer{}), "Load": eng.Load(bytes.NewReader(nil))} {
		if err == nil {
			t.Errorf("%s after Close accepted", what)
		}
	}
}

// TestShapesAllocateAlike: the sequence axis runs the same replica pass as
// the plain data-parallel shape, out of per-micro cache arenas that
// persist across steps, so a steady-state (1,2,1) step allocates about
// what a (2,1,1) step does — not the 250× it did when every forward built
// a fresh arena and every all-to-all fresh payloads.
func TestShapesAllocateAlike(t *testing.T) {
	bytesPerStep := func(r, s int) float64 {
		eng, err := New(tinyGPT(42), shapeConfig(r, s, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		corpus := data.NewCorpus(64, 3)
		batch := corpus.NextBatch(4, 8)
		step := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := eng.Step(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		step(4) // arenas, ring buffers and staged payloads fill
		// The best of three windows: the runtime's own allocations land in
		// some windows and not others, by up to ~1 KB a step.
		const steps = 16
		best := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			step(steps)
			runtime.ReadMemStats(&after)
			best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/steps)
		}
		return best
	}
	dpB, spB := bytesPerStep(2, 1), bytesPerStep(1, 2)
	if lo, hi := min(dpB, spB), max(dpB, spB); hi > 2*lo {
		t.Errorf("steady-state bytes/step: (2,1,1) %.0f vs (1,2,1) %.0f — more than 2× apart", dpB, spB)
	}
}

// namesField reports whether err is a *data.ConfigError whose Field
// starts with prefix.
func namesField(err error, prefix string) bool {
	var ce *data.ConfigError
	return errors.As(err, &ce) && strings.HasPrefix(ce.Field, prefix)
}
