package dp

import (
	"bytes"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/place"
	"superoffload/internal/stv"
)

// runPlacedEngine trains one engine for steps iterations and returns its
// losses, stats, and checkpoint bytes.
func runPlacedEngine(t *testing.T, e *Engine, steps int) ([]float64, stv.Stats, []byte) {
	t.Helper()
	corpus := data.NewCorpus(64, 55)
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
	stats := e.Stats()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return losses, stats, ckpt.Bytes()
}

// placedConfig is the shared engine config for the placement tests, with
// fault injection so rollbacks are part of the exactness surface.
func placedConfig(ranks int) Config {
	cfg := shapeConfig(ranks, 1, 1)
	cfg.BucketElems = 4096 // a dozen buckets, so the split is meaningful
	cfg.ClipNorm = 0.9
	cfg.InjectBad = func(step int) bool { return step == 3 }
	return cfg
}

// TestEnginePlacementBitExact asserts the multi-rank half of the
// placement contract: with any plan (GPU tail, and the tail with an NVMe
// body behind per-rank PlacedStores), each engine — DP R=2, SP S=2, mesh
// 2×2 — trains bit-identically to its homogeneous self (which the
// equivalence suites already pin to the single-rank trainer): same
// losses, same rollback stats, byte-identical checkpoints. Per-rank
// telemetry must cover the whole plan exactly once.
func TestEnginePlacementBitExact(t *testing.T) {
	const steps = 12
	nb := len(stv.PartitionGroups(tinyGPT(42).Params(), placedConfig(2).BucketElems))
	if nb < 3 {
		t.Fatalf("toy partition too small (%d buckets) for a meaningful split", nb)
	}
	split := place.GPUTail(nb, 2)
	nvmePlan := split.WithNVMeBody()

	builders := []struct {
		name string
		r, s int
	}{{"dp-r2", 2, 1}, {"sp-s2", 1, 2}, {"mesh-2x2", 2, 2}}

	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			build := func(cfg Config) (*Engine, error) {
				cfg.Ranks, cfg.SeqRanks = b.r, b.s
				return New(tinyGPT(42), cfg)
			}
			ref, err := build(placedConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			if got := ref.NumBuckets(); got != nb {
				t.Fatalf("engine partitioned %d buckets, expected %d", got, nb)
			}
			refLosses, refStats, refCkpt := runPlacedEngine(t, ref, steps)
			if refStats.Rollbacks() == 0 {
				t.Fatal("reference run produced no rollbacks")
			}

			plans := []struct {
				name string
				plan place.Plan
				nvme bool
			}{
				{"gpu-tail", split, false},
				{"gpu-tail+nvme", nvmePlan, true},
			}
			for _, pc := range plans {
				cfg := placedConfig(2)
				plan := pc.plan
				cfg.Placement = &plan
				if pc.nvme {
					dir := t.TempDir()
					cfg.NewStore = func(rank int) (stv.BucketStore, error) {
						return stv.NewPlacedStore(plan, stv.NVMeStoreConfig{Dir: dir})
					}
				}
				e, err := build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tel, ok := e.PlacementTelemetry()
				if !ok {
					e.Close()
					t.Fatalf("%s: placement telemetry missing", pc.name)
				}
				census := 0
				for _, tr := range tel.Tiers {
					census += tr.Buckets
				}
				if census != nb {
					e.Close()
					t.Fatalf("%s: per-rank tier census sums to %d, want %d", pc.name, census, nb)
				}
				losses, stats, ckpt := runPlacedEngine(t, e, steps)
				for i := range refLosses {
					if losses[i] != refLosses[i] {
						t.Fatalf("%s: loss diverged at step %d: %v vs %v", pc.name, i, losses[i], refLosses[i])
					}
				}
				if stats != refStats {
					t.Fatalf("%s: stats diverged: %+v vs %+v", pc.name, stats, refStats)
				}
				if !bytes.Equal(ckpt, refCkpt) {
					t.Fatalf("%s: checkpoint bytes diverged", pc.name)
				}
			}
		})
	}
}

// TestEnginePlacementTelemetry pins the summed accounting: every rank
// records every step, pipelined never exceeds serialized, and a bad plan
// is rejected at construction.
func TestEnginePlacementTelemetry(t *testing.T) {
	const steps = 5
	cfg := placedConfig(2)
	cfg.InjectBad = nil
	nb := len(stv.PartitionGroups(tinyGPT(42).Params(), cfg.BucketElems))
	plan := place.GPUTail(nb, 1)
	cfg.Placement = &plan
	e, err := New(tinyGPT(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(64, 55)
	for i := 0; i < steps; i++ {
		if _, err := e.Step(corpus.NextBatch(4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	tel, ok := e.PlacementTelemetry()
	if !ok {
		t.Fatal("telemetry missing")
	}
	if tel.Steps != steps {
		t.Fatalf("recorded %d steps, want %d", tel.Steps, steps)
	}
	if tel.PipelinedSeconds <= 0 || tel.PipelinedSeconds > tel.SerializedSeconds {
		t.Fatalf("bad modeled times: %+v", tel)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Engines without a plan report none.
	plain, err := New(tinyGPT(42), shapeConfig(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.PlacementTelemetry(); ok {
		t.Fatal("plan-less engine reported placement telemetry")
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	// A plan sized for the wrong partition is rejected up front by every
	// constructor.
	bad := place.GPUTail(nb+1, 1)
	for name, build := range map[string]func() error{
		"dp": func() error {
			cfg := placedConfig(2)
			cfg.Placement = &bad
			_, err := New(tinyGPT(42), cfg)
			return err
		},
		"sp": func() error {
			cfg := placedConfig(2)
			cfg.Ranks, cfg.SeqRanks = 1, 2
			cfg.Placement = &bad
			_, err := New(tinyGPT(42), cfg)
			return err
		},
		"mesh": func() error {
			cfg := placedConfig(2)
			cfg.SeqRanks = 2
			cfg.Placement = &bad
			_, err := New(tinyGPT(42), cfg)
			return err
		},
	} {
		if build() == nil {
			t.Fatalf("%s: mis-sized plan accepted", name)
		}
	}
}
