package stv_test

import (
	"runtime"
	"testing"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/place"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// actGPT is deep enough (5 layers) that the activation store's resident
// floor of 2 leaves three layers actually spilling per pass.
func actGPT(seed uint64) *nn.GPT {
	cfg := model.Config{Name: "t", Layers: 5, Hidden: 32, Heads: 2, Vocab: 64}
	return nn.NewGPT(cfg, 16, tensor.NewRNG(seed))
}

// TestTrainerActBitExact: a trainer spilling activations through either
// tier reproduces the resident trainer bit for bit — across the clip
// rollback and the NaN skip, whose corrected weights every pass after
// them reads — with real spill traffic the double buffer hides.
// At two Ps the model's two-row passes run two lanes under the tap on any
// host.
func TestTrainerActBitExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tier := range []act.Tier{act.DRAM, act.NVMe} {
		t.Run(tier.String(), func(t *testing.T) {
			st, err := act.NewStore(act.Config{
				Tier: tier, Dir: t.TempDir(), ResidentLayers: 2,
				Hidden: 32, Params: int64(actGPT(42).NumParams()),
			})
			if err != nil {
				t.Fatal(err)
			}
			run := sameAsDRAM(t, actGPT, overflowConfig(stv.STV), func(cfg *config) { cfg.Act = st }, 18)
			if run.stats.Rollbacks() == 0 || run.stats.Redos == 0 {
				t.Fatalf("run exercised no rollbacks or redos: %+v", run.stats)
			}
			// Every fetch reads back a spill, so spilled traffic can
			// exceed fetched — never the reverse.
			tel := st.Telemetry()
			if tel.Spills == 0 || tel.Fetches == 0 || tel.BytesSpilled < tel.BytesFetched {
				t.Fatalf("store saw no spill traffic: %+v", tel)
			}
			if tel.PipelinedSeconds() >= tel.SerializedSeconds() {
				t.Fatalf("double buffering hid nothing: pipelined %v >= serialized %v",
					tel.PipelinedSeconds(), tel.SerializedSeconds())
			}
		})
	}
}

// TestTrainerActPlacementClock pins the co-modeled step clock: with an
// activation store attached, the placement executor's telemetry gains the
// activation phases, and the pipelined schedule strictly beats the
// serialized one (the prefetcher overlaps reads under backward compute).
func TestTrainerActPlacementClock(t *testing.T) {
	m := actGPT(42)
	nb := len(stv.PartitionGroups(m.Params(), 20000))
	plan := place.GPUTail(nb, 1)
	st, err := act.NewStore(act.Config{
		Tier: act.NVMe, Dir: t.TempDir(), ResidentLayers: 2,
		Hidden: 32, Params: int64(m.NumParams()),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trainerConfig(stv.STV)
	cfg.Placement = &plan
	cfg.Act = st
	tr := newEngine(m, cfg)
	defer tr.Close()
	corpus := data.NewCorpus(64, 5)
	for i := 0; i < 6; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tel, ok := tr.PlacementTelemetry()
	if !ok {
		t.Fatal("placement telemetry missing")
	}
	if tel.ActWriteSeconds <= 0 || tel.ActReadSeconds <= 0 || tel.ForwardSeconds <= 0 {
		t.Fatalf("activation phases not modeled: %+v", tel)
	}
	if tel.PipelinedSeconds <= 0 || tel.PipelinedSeconds >= tel.SerializedSeconds {
		t.Fatalf("pipelined schedule does not strictly beat serialized: %+v", tel)
	}
}
