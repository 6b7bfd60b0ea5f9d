package core

import (
	"math"
	"testing"
	"testing/quick"

	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/sched"
)

func TestEfficiencyEquation(t *testing.T) {
	// Eq. 1-3 hand check: comp = 2·b·s·P/tp, comm = 2P/bw.
	eff := Efficiency(4, 1024, 1e9, 500e12, 450e9)
	comp := 2.0 * 4 * 1024 * 1e9 / 500e12
	comm := 2.0 * 1e9 / 450e9
	want := comp / (comp + comm)
	if math.Abs(eff-want) > 1e-12 {
		t.Fatalf("efficiency = %v, want %v", eff, want)
	}
}

func TestEfficiencyMonotoneInBandwidthAndBatch(t *testing.T) {
	f := func(b1 uint8, bw1, bw2 uint32) bool {
		b := int(b1%16) + 1
		lo := float64(bw1%1000+1) * 1e9
		hi := lo + float64(bw2%1000+1)*1e9
		return Efficiency(b, 1024, 1e9, 500e12, lo) <= Efficiency(b, 1024, 1e9, 500e12, hi) &&
			Efficiency(b, 1024, 1e9, 500e12, lo) <= Efficiency(b+1, 1024, 1e9, 500e12, lo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFig6Shape(t *testing.T) {
	// Fig. 6 headline: at 450 GB/s uni-directional C2C, batch must be ≥4
	// (seq 1024) to clear 60% efficiency.
	pts := EfficiencySweep([]int{1, 2, 4}, 7e9)
	at := func(b int, bw float64) float64 {
		for _, p := range pts {
			if p.Batch == b && p.BandwidthGBs == bw {
				return p.Efficiency
			}
		}
		t.Fatalf("missing point b=%d bw=%v", b, bw)
		return 0
	}
	if e := at(4, 400); e < 60 {
		t.Errorf("batch 4 @400GB/s = %.1f%%, want ≥60%% (§4.2)", e)
	}
	if e := at(1, 400); e > 50 {
		t.Errorf("batch 1 @400GB/s = %.1f%%, should be well below 60%%", e)
	}
	if at(2, 1280) <= at(2, 40) {
		t.Error("efficiency should grow with bandwidth")
	}
	if len(pts) != 3*len(Fig6Bandwidths) {
		t.Errorf("sweep size %d", len(pts))
	}
}

func TestCastPathChoiceFlipsWithLink(t *testing.T) {
	elems := int64(64 << 20) // 128 MB fp16 / 256 MB fp32
	// §4.5: on the Superchip, Cast_gpu↔Move_fp32 wins.
	if got := ChooseCastPath(hw.GH200(), elems); got != CastGPUMoveFP32 {
		t.Errorf("GH200 cast path = %v, want CastGPUMoveFP32", got)
	}
	// On PCIe (DGX-2), minimizing wire volume wins — the prior design
	// was right for its hardware.
	if got := ChooseCastPath(hw.DGX2(), elems); got != CastCPUMoveFP16 {
		t.Errorf("DGX-2 cast path = %v, want CastCPUMoveFP16", got)
	}
}

func TestFig9Shape(t *testing.T) {
	pts := CastCostSweep(hw.GH200())
	if len(pts) != 8 {
		t.Fatalf("sweep size %d", len(pts))
	}
	for _, p := range pts {
		if p.SizeMB >= 256 && p.CastCPUMs < 1.5*p.CastGPUMs {
			t.Errorf("at %dMB: cpu-path %.2fms should be ≈2x gpu-path %.2fms",
				p.SizeMB, p.CastCPUMs, p.CastGPUMs)
		}
		if p.CastGPUMs <= 0 || p.CastCPUMs <= 0 {
			t.Errorf("non-positive cost at %dMB", p.SizeMB)
		}
	}
}

func TestSADFGPartitioners(t *testing.T) {
	bucket := int64(32 << 20)
	// On GH200 the Superchip-aware partition places both casts on the
	// GPU (fp32 crosses the link); greedy edge-cut places them CPU-side
	// (fp16 crosses, minimizing volume).
	g := MixedPrecisionStepGraph(hw.GH200(), bucket)
	greedy := g.GreedyEdgeCut()
	aware := g.SuperchipAware()
	if greedy[1] != CPU || greedy[3] != CPU {
		t.Errorf("greedy edge-cut should cast on CPU: %v", greedy)
	}
	if aware[1] != GPU || aware[3] != GPU {
		t.Errorf("superchip-aware should cast on GPU: %v", aware)
	}
	if g.Cost(aware) > g.Cost(greedy) {
		t.Errorf("aware cost %.4f should beat greedy %.4f on GH200", g.Cost(aware), g.Cost(greedy))
	}
	if g.CommVolume(greedy) > g.CommVolume(aware) {
		t.Errorf("greedy should minimize volume: %d vs %d", g.CommVolume(greedy), g.CommVolume(aware))
	}

	// On PCIe hardware the two agree: low volume is the right call.
	g2 := MixedPrecisionStepGraph(hw.DGX2(), bucket)
	aware2 := g2.SuperchipAware()
	if aware2[1] != CPU || aware2[3] != CPU {
		t.Errorf("on PCIe the aware partition should also cast on CPU: %v", aware2)
	}
}

func TestSADFGPinningRespected(t *testing.T) {
	g := MixedPrecisionStepGraph(hw.GH200(), 1<<20)
	for _, p := range []Partition{g.GreedyEdgeCut(), g.SuperchipAware()} {
		if !g.valid(p) {
			t.Fatalf("partition violates pinning: %v", p)
		}
		if p[0] != GPU || p[4] != GPU || p[2] != CPU {
			t.Errorf("pinned ops moved: %v", p)
		}
	}
}

func TestMemoryModelPolicyDifference(t *testing.T) {
	m, _ := model.ByName("25B")
	exec := sched.Execution{MicroBatch: 8, GradAccum: 1}
	bp := int64(32 << 20)
	st := GPUMemory(m, m.Params(), WeightStationary, exec, 1024, bp, 0)
	fl := GPUMemory(m, m.Params(), WeightFlow, exec, 1024, bp, 0)
	if fl >= st {
		t.Errorf("weight-flow (%d GiB) should use less HBM than stationary (%d GiB)", fl>>30, st>>30)
	}
	// GPU-retained buckets cost HBM.
	withGPU := GPUMemory(m, m.Params(), WeightStationary, exec, 1024, bp, 8)
	if withGPU <= st {
		t.Error("GPU-retained buckets must add HBM usage")
	}
	// And save DDR.
	if CPUMemory(m.Params(), bp, 8) >= CPUMemory(m.Params(), bp, 0) {
		t.Error("GPU-retained buckets must reduce DDR usage")
	}
}

func TestFitsReasons(t *testing.T) {
	chip := hw.GH200()
	m, _ := model.ByName("50B")
	exec := sched.Execution{MicroBatch: 8, GradAccum: 1}
	ok, reason := Fits(chip, m, m.Params(), WeightStationary, exec, 1024, 32<<20, 0)
	if ok {
		t.Fatal("50B weight-stationary cannot fit one GH200")
	}
	if reason == "" {
		t.Fatal("OOM must carry a reason")
	}
}

func TestMaxTrainableSingleChipIs25B(t *testing.T) {
	got := sched.MaxTrainable(New(), hw.ClusterFor(1), 8, 1024)
	if got.Name != "25B" {
		t.Errorf("max single-Superchip model = %s, paper says 25B", got.Name)
	}
}

func TestMaxTrainableMultiChip(t *testing.T) {
	if testing.Short() {
		t.Skip("grid search over model zoo")
	}
	if got := sched.MaxTrainable(New(), hw.ClusterFor(4), 16, 1024); got.Name != "50B" {
		t.Errorf("max on 4 chips = %s, paper says 50B", got.Name)
	}
	if got := sched.MaxTrainable(New(), hw.ClusterFor(16), 128, 1024); got.Name != "200B" {
		t.Errorf("max on 16 chips = %s, paper says 200B", got.Name)
	}
}

func TestPlanSingleChipThroughput(t *testing.T) {
	m, _ := model.ByName("5B")
	r := New().Plan(sched.Workload{Cluster: hw.ClusterFor(1), Model: m, GlobalBatch: 8, Seq: 1024})
	if !r.Fits {
		t.Fatalf("5B must fit: %s", r.OOM)
	}
	// Table 2 full stack: ~239 TFLOPS on the 5B model.
	if r.TFLOPS < 210 || r.TFLOPS > 270 {
		t.Errorf("5B throughput = %.1f TFLOPS, paper ≈239", r.TFLOPS)
	}
	// Fig. 15: near-zero GPU idle.
	if r.GPUIdleFrac > 0.10 {
		t.Errorf("GPU idle = %.2f, want <0.10", r.GPUIdleFrac)
	}
}

func TestAblationOrdering(t *testing.T) {
	m, _ := model.ByName("5B")
	w := sched.Workload{Cluster: hw.ClusterFor(1), Model: m, GlobalBatch: 8, Seq: 1024}
	opts := Options{} // everything off
	prev := 0.0
	ladder := []func(*Options){
		func(o *Options) {},
		func(o *Options) { o.GraceAdam = true },
		func(o *Options) { o.SuperchipCasting = true },
		func(o *Options) { o.Speculation = true },
		func(o *Options) { o.BucketRepartition = true },
	}
	for i, enable := range ladder {
		enable(&opts)
		r := NewWith(opts).Plan(w)
		if !r.Fits {
			t.Fatalf("step %d OOM", i)
		}
		if r.TFLOPS < prev*0.98 {
			t.Errorf("ablation step %d regressed: %.1f -> %.1f TFLOPS", i, prev, r.TFLOPS)
		}
		prev = r.TFLOPS
	}
	base := NewWith(Options{}).Plan(w).TFLOPS
	if prev/base < 1.8 {
		t.Errorf("full/baseline = %.2fx, paper reports 2.06x", prev/base)
	}
}

func TestAdaptivePolicySwitchesToFlowForLongSeq(t *testing.T) {
	m, _ := model.ByName("13B")
	s := New()
	short := sched.Workload{Cluster: hw.ClusterFor(8), Model: m, GlobalBatch: 8, Seq: 1024}
	long := sched.Workload{Cluster: hw.ClusterFor(8), Model: m, GlobalBatch: 8, Seq: 1 << 16}
	pShort, ok1 := s.Describe(short)
	pLong, ok2 := s.Describe(long)
	if !ok1 || !ok2 {
		t.Fatalf("describe failed: %v %v", ok1, ok2)
	}
	if pShort.Policy != WeightStationary {
		t.Errorf("short-seq 13B/8-chip should be weight-stationary, got %v", pShort.Policy)
	}
	if pLong.Policy != WeightFlow {
		t.Errorf("long-seq should flip to weight-flow, got %v", pLong.Policy)
	}
}

func TestNUMAMisbindingHurts(t *testing.T) {
	// 20B on 4 chips: the per-bucket optimizer time is close to the
	// per-bucket backward time, so remote-socket memory traffic pushes
	// the CPU phase past the backward pass and exposes it.
	m, _ := model.ByName("20B")
	w := sched.Workload{Cluster: hw.ClusterFor(4), Model: m, GlobalBatch: 16, Seq: 1024}
	good := New().Plan(w)
	bad := NewWith(Options{GraceAdam: true, SuperchipCasting: true, Speculation: true, BucketRepartition: true, NUMABinding: false}).Plan(w)
	if !good.Fits || !bad.Fits {
		t.Fatalf("both should fit")
	}
	if bad.TFLOPS >= good.TFLOPS {
		t.Errorf("misbinding should hurt: %.1f vs %.1f", bad.TFLOPS, good.TFLOPS)
	}
}

func TestActivationsDominate(t *testing.T) {
	m := model.Nearest(7e9)
	if ActivationsDominate(m, 8, 1024) {
		t.Error("short sequences: states dominate")
	}
	if !ActivationsDominate(m, 1, 1<<20) {
		t.Error("million-token: activations must dominate (§4.2)")
	}
}

func TestDeviceAndPolicyStrings(t *testing.T) {
	if GPU.String() != "GPU" || CPU.String() != "CPU" {
		t.Error("device strings")
	}
	if WeightStationary.String() == WeightFlow.String() {
		t.Error("policy strings")
	}
	if CastGPUMoveFP32.String() == CastCPUMoveFP16.String() {
		t.Error("cast path strings")
	}
}

func TestActCoPlanWindow(t *testing.T) {
	chip := hw.DefaultSuperchip().Chip
	m, _ := model.ByName("5B")
	exec := sched.Execution{MicroBatch: 8}

	// A zero-layer model has no windowable activations.
	headOnly := m
	headOnly.Layers = 0
	if w, spill := ActCoPlan(chip, headOnly, m.Params(), WeightStationary, exec, 1024, 1<<24, 0); w != 0 || spill {
		t.Errorf("zero-layer co-plan = (%d, %v), want (0, false)", w, spill)
	}

	// Plenty of HBM: every layer stays resident, no spill.
	roomy := chip
	roomy.GPU.MemBytes = 1 << 50
	if w, spill := ActCoPlan(roomy, m, m.Params(), WeightStationary, exec, 1024, 1<<24, 0); w != m.Layers || spill {
		t.Errorf("roomy co-plan = (%d, %v), want (%d, false)", w, spill, m.Layers)
	}

	// No HBM at all: the window floors at hw.ActMinResidentLayers and spills
	// (feasibility is the caller's Fits check, not ActCoPlan's).
	tiny := chip
	tiny.GPU.MemBytes = 1
	if w, spill := ActCoPlan(tiny, m, m.Params(), WeightStationary, exec, 1024, 1<<24, 0); w != hw.ActMinResidentLayers || !spill {
		t.Errorf("tiny co-plan = (%d, %v), want (%d, true)", w, spill, hw.ActMinResidentLayers)
	}

	// The window is monotone in HBM: more memory never shrinks it, and
	// a budget between the extremes yields a partial window that fits.
	noAct := exec
	noAct.MicroBatch = 0
	base := GPUMemory(m, m.Params(), WeightStationary, noAct, 1024, 1<<24, 0)
	full := m.ActivationBytes(exec.MicroBatch, 1024, false)
	mid := chip
	mid.GPU.MemBytes = base + full/2
	w, spill := ActCoPlan(mid, m, m.Params(), WeightStationary, exec, 1024, 1<<24, 0)
	if !spill || w <= hw.ActMinResidentLayers || w >= m.Layers {
		t.Errorf("mid co-plan = (%d, %v), want a partial spilling window", w, spill)
	}
	wRoomy, _ := ActCoPlan(roomy, m, m.Params(), WeightStationary, exec, 1024, 1<<24, 0)
	if wRoomy < w {
		t.Errorf("window shrank with more HBM: %d < %d", wRoomy, w)
	}
}

// TestDescribeAgreesWithPlan: the decision record superplan and the
// placement subsystem read (Describe) and the schedule the paper figures
// time (Plan) are the same decision — same feasibility, same micro-batch,
// accumulation and checkpointing — over the Appendix A zoo on 1–16 chips
// from 1 Ki to 128 Ki tokens.
func TestDescribeAgreesWithPlan(t *testing.T) {
	s := New()
	fitting := 0
	for i, m := range model.AppendixA() {
		if testing.Short() && i%4 != 0 {
			continue
		}
		for _, chips := range []int{1, 2, 4, 8, 16} {
			for _, seq := range []int{1 << 10, 4 << 10, 32 << 10, 128 << 10} {
				w := sched.Workload{Cluster: hw.ClusterFor(chips), Model: m, GlobalBatch: 4 * chips, Seq: seq}
				r := s.Plan(w)
				p, ok := s.Describe(w)
				if ok != r.Fits {
					t.Errorf("%v: Plan fits %v, Describe %v", w, r.Fits, ok)
				}
				if !ok {
					continue
				}
				fitting++
				if p.Exec != r.Exec {
					t.Errorf("%v: Plan runs %+v, Describe %+v", w, r.Exec, p.Exec)
				}
			}
		}
	}
	if fitting == 0 {
		t.Fatal("no request on the grid fits")
	}
}
