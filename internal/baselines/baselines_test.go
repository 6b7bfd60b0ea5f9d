package baselines

import (
	"testing"

	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/sched"
)

func wl(chips int, modelName string, batch int) sched.Workload {
	m, err := model.ByName(modelName)
	if err != nil {
		panic(err)
	}
	return sched.Workload{Cluster: hw.ClusterFor(chips), Model: m, GlobalBatch: batch, Seq: 1024}
}

func TestAllSystemsHaveDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.Name()] {
			t.Errorf("duplicate system name %s", s.Name())
		}
		seen[s.Name()] = true
	}
	if len(seen) != 7 {
		t.Errorf("expected 7 baselines, got %d", len(seen))
	}
}

// TestFig13SingleChipCapacities pins the paper's Fig. 13 single-Superchip
// capacity points: DDP 3.5B, ZeRO-Offload 15B (SuperOffload's 25B is
// asserted in internal/core).
func TestFig13SingleChipCapacities(t *testing.T) {
	cl := hw.ClusterFor(1)
	if got := sched.MaxTrainable(DDP{}, cl, 8, 1024); got.Name != "3.5B" {
		t.Errorf("DDP max = %s, paper 3.5B", got.Name)
	}
	if got := sched.MaxTrainable(ZeROOffload, cl, 8, 1024); got.Name != "15B" {
		t.Errorf("ZeRO-Offload max = %s, paper 15B", got.Name)
	}
	if got := sched.MaxTrainable(ZeROInfinity, cl, 8, 1024); got.Name != "25B" {
		t.Errorf("ZeRO-Infinity max = %s, paper ~25B (comparable to SuperOffload)", got.Name)
	}
	// Megatron/ZeRO-2/ZeRO-3 "do not enable training larger models on a
	// single GPU compared to PyTorch DDP" (§5.4).
	for _, s := range []sched.System{Megatron{}, ZeRO2{}, ZeRO3{}} {
		got := sched.MaxTrainable(s, cl, 8, 1024)
		if got.Params() > 4e9 {
			t.Errorf("%s single-chip max = %s, should not exceed DDP's ~3.5B", s.Name(), got.Name)
		}
	}
}

func TestFig13MultiChipCapacities(t *testing.T) {
	if testing.Short() {
		t.Skip("model-zoo sweeps")
	}
	cl16 := hw.ClusterFor(16)
	// §5.4: ZeRO-Offload stays bounded (~20B) regardless of GPU count;
	// ZeRO-2 ~20B; Megatron and ZeRO-3 reach ~45-50B on 16 chips.
	if got := sched.MaxTrainable(ZeROOffload, cl16, 128, 1024); got.Params() > 26e9 {
		t.Errorf("ZeRO-Offload 16-chip max = %s, paper says bounded ~20B", got.Name)
	}
	if got := sched.MaxTrainable(ZeRO2{}, cl16, 128, 1024); got.Name != "20B" {
		t.Errorf("ZeRO-2 16-chip max = %s, paper ~20B", got.Name)
	}
	if got := sched.MaxTrainable(ZeRO3{}, cl16, 128, 1024); got.Name != "50B" {
		t.Errorf("ZeRO-3 16-chip max = %s, paper ~45-50B", got.Name)
	}
	if got := sched.MaxTrainable(Megatron{}, cl16, 128, 1024); got.Name != "50B" {
		t.Errorf("Megatron 16-chip max = %s, paper ~45-50B", got.Name)
	}
	// DDP's scalability is bounded by the single-GPU model scale (§5.4).
	if got := sched.MaxTrainable(DDP{}, cl16, 128, 1024); got.Name != "3.5B" {
		t.Errorf("DDP 16-chip max = %s, must equal single-chip 3.5B", got.Name)
	}
}

func TestFig10SingleChipThroughputShape(t *testing.T) {
	w := wl(1, "5B", 8)
	zo := ZeROOffload.Plan(w)
	zi := ZeROInfinity.Plan(w)
	fsdp := FSDPOffload.Plan(w)
	if !zo.Fits || !zi.Fits || !fsdp.Fits {
		t.Fatalf("5B must fit all offload systems")
	}
	// §5.2: ZeRO-Offload ~116 TFLOPS-class; ZeRO-Infinity below 50;
	// FSDP-Offload the slowest of all.
	if zo.TFLOPS < 90 || zo.TFLOPS > 150 {
		t.Errorf("ZeRO-Offload = %.1f TFLOPS, paper ≈116", zo.TFLOPS)
	}
	if zi.TFLOPS >= 50 {
		t.Errorf("ZeRO-Infinity = %.1f TFLOPS, paper <50", zi.TFLOPS)
	}
	if fsdp.TFLOPS >= 25 {
		t.Errorf("FSDP-Offload = %.1f TFLOPS, paper <15 (we accept <25)", fsdp.TFLOPS)
	}
	if !(fsdp.TFLOPS < zi.TFLOPS && zi.TFLOPS < zo.TFLOPS) {
		t.Errorf("ordering violated: FSDP %.0f < ZI %.0f < ZO %.0f expected",
			fsdp.TFLOPS, zi.TFLOPS, zo.TFLOPS)
	}
}

func TestZeROOffloadIdleFraction(t *testing.T) {
	// Fig. 4: prior offloading leaves the GPU idle 40-50% per iteration.
	r := ZeROOffload.Plan(wl(1, "5B", 8))
	if r.GPUIdleFrac < 0.35 || r.GPUIdleFrac > 0.65 {
		t.Errorf("ZeRO-Offload GPU idle = %.2f, paper 0.40-0.50", r.GPUIdleFrac)
	}
}

func TestDDPOOMBeyond4B(t *testing.T) {
	r := DDP{}.Plan(wl(1, "5B", 8))
	if r.Fits {
		t.Error("DDP must OOM at 5B on one 96GB GPU")
	}
	r = DDP{}.Plan(wl(1, "3B", 8))
	if !r.Fits {
		t.Errorf("DDP must fit 3B: %s", r.OOM)
	}
}

func TestGPUOnlySystemsDontScaleModelWithChips(t *testing.T) {
	// DDP replicates: 5B OOMs regardless of chip count.
	r := DDP{}.Plan(wl(16, "5B", 128))
	if r.Fits {
		t.Error("DDP 5B should OOM even on 16 chips")
	}
	// Sharded systems do scale.
	r = ZeRO3{}.Plan(wl(16, "13B", 128))
	if !r.Fits {
		t.Errorf("ZeRO-3 13B on 16 chips should fit: %s", r.OOM)
	}
	r = Megatron{}.Plan(wl(16, "13B", 128))
	if !r.Fits {
		t.Errorf("Megatron 13B on 16 chips should fit: %s", r.OOM)
	}
}

func TestMegatronPicksIntraNodeTPWhenPossible(t *testing.T) {
	// 5B fits with TP=2 (intra-node NVLink); throughput should beat a
	// hypothetical Slingshot-spanning TP=4 by a wide margin — verified
	// indirectly: Megatron on 4 chips must stay within 3x of ZeRO-2
	// rather than collapsing.
	meg := Megatron{}.Plan(wl(4, "5B", 16))
	z2 := ZeRO2{}.Plan(wl(4, "5B", 16))
	if !meg.Fits || !z2.Fits {
		t.Fatal("both should fit 5B on 4 chips")
	}
	if meg.TFLOPS < z2.TFLOPS/3 {
		t.Errorf("Megatron %.0f collapsed vs ZeRO-2 %.0f — TP degree search broken?", meg.TFLOPS, z2.TFLOPS)
	}
}

func TestOffloadBeatsGPUOnlyOnCapacityNotSpeed(t *testing.T) {
	// At 3B on a single chip, GPU-only systems are faster than
	// PCIe-era offloading (the conventional wisdom SuperOffload breaks).
	ddp := DDP{}.Plan(wl(1, "3B", 8))
	zo := ZeROOffload.Plan(wl(1, "3B", 8))
	if !ddp.Fits || !zo.Fits {
		t.Fatal("both fit 3B")
	}
	if zo.TFLOPS >= ddp.TFLOPS {
		t.Errorf("ZeRO-Offload (%.0f) should trail DDP (%.0f) when both fit", zo.TFLOPS, ddp.TFLOPS)
	}
}

func TestCollectivesHurtMultiChipOffloadBaselines(t *testing.T) {
	single := ZeROOffload.Plan(wl(1, "13B", 8))
	multi := ZeROOffload.Plan(wl(16, "13B", 128))
	if !single.Fits || !multi.Fits {
		t.Skip("capacity differs")
	}
	// Per-GPU throughput should not magically exceed ~1.5x single-chip
	// even though shards shrink: exposed Slingshot collectives bite.
	if multi.TFLOPS > 1.6*single.TFLOPS {
		t.Errorf("ZeRO-Offload 16-chip %.0f vs single %.0f: collectives not charged?",
			multi.TFLOPS, single.TFLOPS)
	}
}

func TestResultsCarryExecution(t *testing.T) {
	r := ZeROOffload.Plan(wl(1, "13B", 8))
	if !r.Fits {
		t.Fatalf("13B should fit ZeRO-Offload: %s", r.OOM)
	}
	if r.Exec.MicroBatch < 1 || r.Exec.GradAccum < 1 {
		t.Errorf("execution not recorded: %+v", r.Exec)
	}
	if r.IterTime <= 0 || r.TFLOPS <= 0 || r.MFU <= 0 || r.MFU > 1 {
		t.Errorf("derived metrics wrong: %+v", r)
	}
}
