package stv_test

import (
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/place"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// placementBuckets is the toy partition size for hidden 64 / 4096-elem
// buckets (asserted inside the test so plan sizes stay in sync).
const placementBuckets = 19

// TestPlacementBitExact: any placement plan — all-CPU, all-GPU, a GPU
// tail, and the tail with a flash body through a PlacedStore — trains
// bit-identically to the homogeneous trainer.
func TestPlacementBitExact(t *testing.T) {
	nb := len(stv.PartitionGroups(tinyGPT(42).Params(), 4000))
	tail := place.GPUTail(nb, 3)
	for _, c := range []struct {
		name string
		plan place.Plan
	}{
		{"all-cpu", place.Uniform(nb, place.CPUAdam)},
		{"all-gpu", place.Uniform(nb, place.GPUResident)},
		{"gpu-tail", tail},
		{"gpu-tail+nvme", tail.WithNVMeBody()},
	} {
		t.Run(c.name, func(t *testing.T) {
			store, err := stv.NewPlacedStoreFlash(c.plan, func() (stv.BucketStore, error) {
				return nvmeTestStore(t, 2), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sameAsDRAM(t, tinyGPT, overflowConfig(stv.STV), func(cfg *config) { cfg.Store, cfg.Placement = store, &c.plan }, 24)
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
	tr := newEngine(m, config{Config: stv.Config{
		Adam: optim.DefaultConfig(), ClipNorm: 4,
		BucketElems: 4096, Mode: stv.STV, Placement: &plan,
	}})
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
	plain := newEngine(nn.NewGPT(cfg, 16, tensor.NewRNG(11)), config{Config: stv.Config{
		Adam: optim.DefaultConfig(), BucketElems: 4096, Mode: stv.STE,
	}})
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
	s, err := stv.NewPlacedStoreFlash(plan, func() (stv.BucketStore, error) { return nvmeTestStore(t, 2), nil })
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
		s.Release(idx, stv.ReleaseFlush)
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
	s.Release(2, stv.ReleaseClean)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A plan with no NVMe buckets builds no inner store and reports no
	// telemetry.
	resident, err := stv.NewPlacedStoreFlash(place.Uniform(2, place.CPUAdam), func() (stv.BucketStore, error) {
		t.Fatal("flash tier built for a plan without NVMe buckets")
		return nil, nil
	})
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
