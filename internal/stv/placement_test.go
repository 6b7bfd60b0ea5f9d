package stv

import (
	"bytes"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/place"
	"superoffload/internal/tensor"
)

// runPlaced trains a fresh toy model for steps iterations under the given
// placement/store and returns the losses, stats, and final checkpoint
// bytes. A tight clip plus fault injection exercises both rollback
// scenarios, so exactness covers the full verdict surface.
func runPlaced(t *testing.T, steps int, plan *place.Plan, store BucketStore) ([]float64, Stats, []byte) {
	t.Helper()
	cfg := model.Config{Name: "place", Layers: 2, Hidden: 64, Heads: 4, Vocab: 128}
	m := nn.NewGPT(cfg, 16, tensor.NewRNG(11))
	a := optim.DefaultConfig()
	a.LR = 3e-3
	tr := NewTrainer(m, Config{
		Adam: a, ClipNorm: 0.9,
		BucketElems: 4096, Mode: STV, Store: store,
		Placement: plan,
		InjectBad: func(step int) bool { return step == 4 },
	})
	defer func() {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	corpus := data.NewCorpus(cfg.Vocab, 13)
	losses := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		l, err := tr.Step(corpus.NextBatch(4, 16))
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, l)
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := tr.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	return losses, tr.Stats(), ckpt.Bytes()
}

// placementBuckets is the toy partition size for hidden 64 / 4096-elem
// buckets (asserted inside the test so plan sizes stay in sync).
const placementBuckets = 19

// TestPlacementBitExact asserts the tentpole contract: any placement
// plan — all-GPU, all-CPU, the auto split, and the split with an NVMe
// body through a PlacedStore — trains bit-identically to the homogeneous
// trainer: same losses, same rollback stats, byte-identical checkpoints.
func TestPlacementBitExact(t *testing.T) {
	const steps = 24
	refLosses, refStats, refCkpt := runPlaced(t, steps, nil, nil)
	if refStats.Rollbacks() == 0 {
		t.Fatal("reference run produced no rollbacks; the exactness test is not exercising the verdict surface")
	}

	split := place.GPUTail(placementBuckets, 3)
	nvmePlan := split.WithNVMeBody()
	nvmeStore, err := NewPlacedStore(nvmePlan, NVMeStoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		plan  place.Plan
		store BucketStore
	}{
		{"all-cpu", place.Uniform(placementBuckets, place.CPUAdam), nil},
		{"all-gpu", place.Uniform(placementBuckets, place.GPUResident), nil},
		{"gpu-tail", split, nil},
		{"gpu-tail+nvme", nvmePlan, nvmeStore},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan
			losses, stats, ckpt := runPlaced(t, steps, &plan, tc.store)
			for i := range refLosses {
				if losses[i] != refLosses[i] {
					t.Fatalf("loss diverged at step %d: %v vs homogeneous %v", i, losses[i], refLosses[i])
				}
			}
			if stats != refStats {
				t.Fatalf("stats diverged: %+v vs homogeneous %+v", stats, refStats)
			}
			if !bytes.Equal(ckpt, refCkpt) {
				t.Fatal("checkpoint bytes diverged from the homogeneous trainer")
			}
		})
	}
}

// TestPlacementTelemetry checks the executor's accounting: bucket
// censuses match the plan, every recorded step charges time, pipelined
// never exceeds serialized, and the homogeneous trainer reports none.
func TestPlacementTelemetry(t *testing.T) {
	const steps = 6
	plan := place.GPUTail(placementBuckets, 3)
	cfg := model.Config{Name: "place", Layers: 2, Hidden: 64, Heads: 4, Vocab: 128}
	m := nn.NewGPT(cfg, 16, tensor.NewRNG(11))
	tr := NewTrainer(m, Config{
		Adam: optim.DefaultConfig(), ClipNorm: 4,
		BucketElems: 4096, Mode: STV, Placement: &plan,
	})
	defer tr.Close()
	if tr.NumBuckets() != placementBuckets {
		t.Fatalf("partition has %d buckets; update placementBuckets", tr.NumBuckets())
	}
	corpus := data.NewCorpus(cfg.Vocab, 13)
	for i := 0; i < steps; i++ {
		if _, err := tr.Step(corpus.NextBatch(4, 16)); err != nil {
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
	if tel.Steps != steps {
		t.Fatalf("telemetry recorded %d steps, want %d", tel.Steps, steps)
	}
	if tel.Tiers[place.GPUResident].Buckets != 3 || tel.Tiers[place.CPUAdam].Buckets != placementBuckets-3 {
		t.Fatalf("tier census %d/%d does not match the plan", tel.Tiers[place.GPUResident].Buckets, tel.Tiers[place.CPUAdam].Buckets)
	}
	if tel.PipelinedSeconds <= 0 || tel.SerializedSeconds <= 0 {
		t.Fatalf("no modeled time charged: %+v", tel)
	}
	if tel.PipelinedSeconds > tel.SerializedSeconds {
		t.Fatalf("pipelined %.9g exceeds serialized %.9g", tel.PipelinedSeconds, tel.SerializedSeconds)
	}
	if tel.Tiers[place.GPUResident].D2HSeconds != 0 || tel.Tiers[place.GPUResident].H2DSeconds != 0 {
		t.Fatal("GPU-resident tier charged link traffic")
	}
	if tel.Tiers[place.CPUAdam].D2HSeconds <= 0 || tel.Tiers[place.CPUAdam].H2DSeconds <= 0 {
		t.Fatal("CPU tier charged no link traffic")
	}

	// StepAccum records the window's full token volume as one step.
	before := tel
	if _, err := tr.StepAccum([]data.Batch{corpus.NextBatch(2, 16), corpus.NextBatch(2, 16)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tel, _ = tr.PlacementTelemetry()
	if tel.Steps != before.Steps+1 {
		t.Fatalf("accum window recorded %d steps, want %d", tel.Steps, before.Steps+1)
	}
	if tel.BackwardSeconds <= before.BackwardSeconds {
		t.Fatal("accum window charged no backward time")
	}

	// Homogeneous trainers report no placement telemetry.
	plain := NewTrainer(nn.NewGPT(cfg, 16, tensor.NewRNG(11)), Config{
		Adam: optim.DefaultConfig(), BucketElems: 4096,
	})
	defer plain.Close()
	if _, ok := plain.PlacementTelemetry(); ok {
		t.Fatal("homogeneous trainer reported placement telemetry")
	}
}

// TestPlacedStoreRouting exercises the tier routing directly: resident
// tiers never touch the flash store, NVMe tiers round-trip through it
// bit-exactly, and telemetry is only present when the plan has NVMe
// buckets.
func TestPlacedStoreRouting(t *testing.T) {
	plan := place.Plan{Tiers: []place.Tier{place.GPUResident, place.CPUAdam, place.NVMeWindow}}
	s, err := NewPlacedStore(plan, NVMeStoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 3; idx++ {
		s.Seed(idx, []float32{float32(idx), 2, 3})
	}
	for idx := 0; idx < 3; idx++ {
		st := s.Acquire(idx)
		if st.Shard.Master[0] != float32(idx) {
			t.Fatalf("bucket %d master = %v", idx, st.Shard.Master[0])
		}
		st.Shard.Master[1] = 42
		s.Release(idx, ReleaseFlush)
	}
	if tel, ok := s.NVMeTelemetry(); !ok || tel.Reads == 0 {
		t.Fatalf("NVMe-tier bucket produced no flash reads: %+v ok=%v", tel, ok)
	}
	// Evict-and-refetch round trip for the NVMe bucket: acquire others
	// so the window (2) evicts bucket 2's modified state, then reread.
	st := s.Acquire(2)
	if st.Shard.Master[1] != 42 {
		t.Fatalf("NVMe round trip lost the mutation: %v", st.Shard.Master)
	}
	s.Release(2, ReleaseClean)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A plan with no NVMe buckets builds no inner store and reports no
	// telemetry.
	resident, err := NewPlacedStore(place.Uniform(2, place.CPUAdam), NVMeStoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resident.NVMeTelemetry(); ok {
		t.Fatal("resident-only placed store reported NVMe telemetry")
	}
	if err := resident.Close(); err != nil {
		t.Fatal(err)
	}
}
