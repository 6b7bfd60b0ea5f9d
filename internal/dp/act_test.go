package dp

import (
	"bytes"
	"testing"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// actTestGPT is deep enough (5 layers) that the activation store's
// resident floor of 2 leaves three layers spilling, with 4 heads so the
// SP and mesh shapes can shard attention.
func actTestGPT(seed uint64) *nn.GPT {
	cfg := model.Config{Name: "t", Layers: 5, Hidden: 32, Heads: 4, Vocab: 64}
	return nn.NewGPT(cfg, 16, tensor.NewRNG(seed))
}

// actTestConfig is the shared engine config: clipping plus fault
// injection, so the exactness surface includes clip rollbacks, the
// NaN-skip, and the redo-forwards that abandon half-spilled passes.
func actTestConfig(ranks int) Config {
	cfg := shapeConfig(ranks, 1, 1)
	cfg.ClipNorm = 0.9
	cfg.InjectBad = func(step int) bool { return step == 3 }
	return cfg
}

// runActEngine trains an engine for steps iterations and returns losses,
// stats, checkpoint bytes, and master weights.
func runActEngine(t *testing.T, e *Engine, steps int) ([]float64, stv.Stats, []byte, []float32) {
	t.Helper()
	corpus := data.NewCorpus(64, 77)
	losses := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		l, err := e.Step(corpus.NextBatch(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, l)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := e.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	masters := e.MasterWeights()
	stats := e.Stats()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return losses, stats, ckpt.Bytes(), masters
}

// TestEngineActBitExact is the multi-rank half of the activation-spill
// exactness contract: each engine — DP R=2, SP S=2, mesh 2×2 — with every
// rank spilling through either tier trains bit-identically to its
// resident self (which the equivalence suites already pin to the
// single-rank trainer): same losses, same rollback stats, byte-identical
// checkpoints, identical master weights. Per-rank telemetry must show
// real spill traffic with the double buffer strictly beating a blocking
// store.
func TestEngineActBitExact(t *testing.T) {
	const steps = 14
	params := int64(actTestGPT(42).NumParams())

	builders := []struct {
		name string
		r, s int
	}{{"dp-r2", 2, 1}, {"sp-s2", 1, 2}, {"mesh-2x2", 2, 2}}

	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			build := func(cfg Config) (*Engine, error) {
				cfg.Ranks, cfg.SeqRanks = b.r, b.s
				return New(actTestGPT(42), cfg)
			}
			ref, err := build(actTestConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := ref.ActTelemetry(); ok {
				ref.Close()
				t.Fatal("store-less engine reported activation telemetry")
			}
			refLosses, refStats, refCkpt, refMasters := runActEngine(t, ref, steps)
			if refStats.Rollbacks() == 0 {
				t.Fatalf("reference run produced no rollbacks: %+v", refStats)
			}

			for _, tier := range []act.Tier{act.DRAM, act.NVMe} {
				cfg := actTestConfig(2)
				dir := t.TempDir()
				cfg.NewActStore = func(rank int) (*act.Store, error) {
					return act.NewStore(act.Config{
						Tier: tier, Dir: dir, ResidentLayers: 2,
						Hidden: 32, Params: params,
					})
				}
				e, err := build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				losses, stats, ckpt, masters := runActEngine(t, e, steps)
				for i := range refLosses {
					if losses[i] != refLosses[i] {
						t.Fatalf("%v: loss diverged at step %d: %v vs %v", tier, i, losses[i], refLosses[i])
					}
				}
				if stats != refStats {
					t.Fatalf("%v: stats diverged: %+v vs %+v", tier, stats, refStats)
				}
				if !bytes.Equal(ckpt, refCkpt) {
					t.Fatalf("%v: checkpoint bytes diverged", tier)
				}
				for i := range masters {
					if masters[i] != refMasters[i] {
						t.Fatalf("%v: master weights diverged at %d", tier, i)
					}
				}
			}
		})
	}
}

// TestEngineActTelemetry pins the summed per-rank accounting on a live
// engine: both ranks spill, traffic balances, and the prefetcher's
// pipelined time strictly beats the serialized reference.
func TestEngineActTelemetry(t *testing.T) {
	cfg := shapeConfig(2, 1, 1)
	params := int64(actTestGPT(42).NumParams())
	cfg.NewActStore = func(rank int) (*act.Store, error) {
		return act.NewStore(act.Config{Tier: act.DRAM, ResidentLayers: 2, Hidden: 32, Params: params})
	}
	e, err := New(actTestGPT(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(64, 9)
	const steps = 6
	for i := 0; i < steps; i++ {
		if _, err := e.Step(corpus.NextBatch(4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	tel, ok := e.ActTelemetry()
	if !ok {
		t.Fatal("activation telemetry missing")
	}
	// 5 layers, window 2 → 3 spills per pass per rank; at least steps
	// passes per rank (redos add more).
	if tel.Passes < steps || tel.Spills < 2*3*steps {
		t.Fatalf("telemetry undercounts traffic: %+v", tel)
	}
	// Redo-forwards spill layers whose pass is then abandoned, so spilled
	// traffic can exceed fetched — never the reverse.
	if tel.BytesFetched == 0 || tel.BytesSpilled < tel.BytesFetched {
		t.Fatalf("spill/fetch traffic unbalanced: %+v", tel)
	}
	if tel.PipelinedSeconds() >= tel.SerializedSeconds() {
		t.Fatalf("double buffering hid nothing: pipelined %v >= serialized %v",
			tel.PipelinedSeconds(), tel.SerializedSeconds())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
