package place

import (
	"testing"

	"superoffload/internal/core"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/sched"
)

func toyElems(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 4096
	}
	return out
}

func toyShape() Shape {
	return Shape{Tokens: 64, Hidden: 64, Seq: 16, Params: 8 * 4096}
}

func TestPlanConstructors(t *testing.T) {
	p := GPUTail(8, 3)
	if got := p.NumBuckets(); got != 8 {
		t.Fatalf("NumBuckets = %d, want 8", got)
	}
	c := p.Counts()
	if c.GPU != 3 || c.CPU != 5 || c.NVMe != 0 {
		t.Fatalf("counts = %+v, want 3 gpu / 5 cpu", c)
	}
	for i := 0; i < 3; i++ {
		if p.Tier(i) != GPUResident {
			t.Fatalf("bucket %d tier = %v, want gpu (the tail is the last-produced, lowest-index buckets)", i, p.Tier(i))
		}
	}
	if p.String() != "gpu×3+cpu×5" {
		t.Fatalf("String = %q", p.String())
	}
	if err := p.Validate(8); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(7); err == nil {
		t.Fatal("Validate accepted a bucket-count mismatch")
	}

	// Clamping.
	if g := GPUTail(4, 99).Counts().GPU; g != 4 {
		t.Fatalf("oversize tail clamped to %d, want 4", g)
	}
	if g := GPUTail(4, -1).Counts().GPU; g != 0 {
		t.Fatalf("negative tail clamped to %d, want 0", g)
	}

	// Out-of-range Tier defaults to the homogeneous CPU path.
	if p.Tier(99) != CPUAdam || p.Tier(-1) != CPUAdam {
		t.Fatal("out-of-range Tier should default to CPUAdam")
	}

	nv := GPUTail(6, 2).WithNVMeBody()
	c = nv.Counts()
	if c.GPU != 2 || c.CPU != 0 || c.NVMe != 4 {
		t.Fatalf("WithNVMeBody counts = %+v, want 2 gpu / 4 nvme", c)
	}
}

func TestStepTimesInvariants(t *testing.T) {
	spec := hw.DefaultSuperchip()
	elems := toyElems(8)
	shape := toyShape()
	for _, plan := range []Plan{
		Uniform(8, CPUAdam),
		Uniform(8, GPUResident),
		GPUTail(8, 2),
		GPUTail(8, 2).WithNVMeBody(),
	} {
		bd := StepTimes(spec, plan.Work(elems), 8, shape)
		if bd.Pipelined <= 0 || bd.Serialized <= 0 {
			t.Fatalf("%v: non-positive step times %+v", plan, bd)
		}
		if bd.Pipelined > bd.Serialized {
			t.Fatalf("%v: pipelined %.9g exceeds serialized %.9g", plan, bd.Pipelined, bd.Serialized)
		}
		if bd.Pipelined < bd.Backward {
			t.Fatalf("%v: pipelined %.9g below backward %.9g", plan, bd.Pipelined, bd.Backward)
		}
		total := 0
		for _, ts := range bd.Tiers {
			total += ts.Buckets
		}
		if total != 8 {
			t.Fatalf("%v: tier buckets sum to %d, want 8", plan, total)
		}
	}

	// All-GPU placements move no link traffic.
	bd := StepTimes(spec, Uniform(8, GPUResident).Work(elems), 8, shape)
	for i, ts := range bd.Tiers {
		if Tier(i) != GPUResident && ts.Total() != 0 {
			t.Fatalf("all-GPU plan charged tier %v: %+v", Tier(i), ts)
		}
	}
	if bd.Tiers[GPUResident].D2H != 0 || bd.Tiers[GPUResident].H2D != 0 {
		t.Fatalf("GPU tier charged link traffic: %+v", bd.Tiers[GPUResident])
	}

	// NVMe-tier buckets additionally charge flash traffic over the CPU
	// path.
	nv := StepTimes(spec, Uniform(8, NVMeWindow).Work(elems), 8, shape)
	if nv.Tiers[NVMeWindow].NVMe <= 0 {
		t.Fatalf("NVMe tier charged no flash time: %+v", nv.Tiers[NVMeWindow])
	}
	cpu := StepTimes(spec, Uniform(8, CPUAdam).Work(elems), 8, shape)
	if nv.Serialized <= cpu.Serialized {
		t.Fatal("NVMe serialized time should exceed the CPU tier's")
	}
}

// TestStepTimesOwnedSubset models a rank owning every other bucket: the
// subset's serialized optimizer work is about half the full partition's,
// while the backward (the whole replica's) is unchanged.
func TestStepTimesOwnedSubset(t *testing.T) {
	spec := hw.DefaultSuperchip()
	shape := toyShape()
	full := StepTimes(spec, Uniform(8, CPUAdam).Work(toyElems(8)), 8, shape)
	var work []BucketWork
	for i := 0; i < 8; i += 2 {
		work = append(work, BucketWork{Index: i, Elems: 4096, Tier: CPUAdam})
	}
	half := StepTimes(spec, work, 8, shape)
	if half.Backward != full.Backward {
		t.Fatalf("subset backward %.9g != full %.9g", half.Backward, full.Backward)
	}
	if half.Tiers[CPUAdam].Buckets != 4 {
		t.Fatalf("subset modeled %d buckets, want 4", half.Tiers[CPUAdam].Buckets)
	}
	if half.Serialized >= full.Serialized {
		t.Fatal("subset serialized time should be below the full partition's")
	}
}

// TestGPUTailBeatsAllCPU is the paper's §4.3 claim on the virtual
// clocks: retaining the last-produced bucket on the GPU removes its
// post-backward D2H → Adam → H2D drain, strictly lowering the pipelined
// step time on the default GH200 spec.
func TestGPUTailBeatsAllCPU(t *testing.T) {
	spec := hw.DefaultSuperchip()
	elems := toyElems(8)
	shape := toyShape()
	allCPU := StepTimes(spec, Uniform(8, CPUAdam).Work(elems), 8, shape).Pipelined
	tail1 := StepTimes(spec, GPUTail(8, 1).Work(elems), 8, shape).Pipelined
	if tail1 >= allCPU {
		t.Fatalf("gpu tail 1 pipelined %.9g not below all-CPU %.9g", tail1, allCPU)
	}
}

func TestAuto(t *testing.T) {
	spec := hw.DefaultSuperchip()
	elems := toyElems(8)
	shape := toyShape()

	p := Auto(spec, elems, shape, 0)
	if err := p.Validate(8); err != nil {
		t.Fatal(err)
	}
	c := p.Counts()
	if c.GPU < 0 || c.GPU > 8 {
		t.Fatalf("auto GPU count %d out of range", c.GPU)
	}
	// The derived plan can never model worse than all-CPU.
	auto := StepTimes(spec, p.Work(elems), 8, shape).Pipelined
	allCPU := StepTimes(spec, Uniform(8, CPUAdam).Work(elems), 8, shape).Pipelined
	if auto > allCPU {
		t.Fatalf("auto pipelined %.9g above all-CPU %.9g", auto, allCPU)
	}

	// A budget below one bucket's state forces the all-CPU plan.
	if g := Auto(spec, elems, shape, 1).Counts().GPU; g != 0 {
		t.Fatalf("1-byte budget retained %d buckets", g)
	}
	if n := Auto(spec, nil, shape, 0).NumBuckets(); n != 0 {
		t.Fatalf("empty partition produced %d-bucket plan", n)
	}
}

// TestFromCore maps the analytic 5B/GH200 plan (which retains a GPU
// tail) onto a toy partition and asserts the acceptance property: the
// derived placement's pipelined virtual step time is strictly below the
// all-CPU placement's on the default GH200 spec.
func TestFromCore(t *testing.T) {
	m := sched.Workload{Cluster: hw.ClusterFor(1), Model: mustModel(t, "5B"), GlobalBatch: 8, Seq: 1024}
	cp, ok := core.New().Describe(m)
	if !ok {
		t.Fatal("5B should fit one GH200")
	}
	if cp.GPUBuckets < 1 || cp.GPUBuckets > cp.NBuckets {
		t.Fatalf("analytic GPU tail %d out of [1, %d]", cp.GPUBuckets, cp.NBuckets)
	}

	p := FromCore(cp, 8)
	if err := p.Validate(8); err != nil {
		t.Fatal(err)
	}
	g := p.Counts().GPU
	if g < 1 || g > 7 {
		t.Fatalf("mapped tail %d should keep both tiers populated", g)
	}

	spec := hw.DefaultSuperchip()
	elems := toyElems(8)
	shape := toyShape()
	auto := StepTimes(spec, p.Work(elems), 8, shape).Pipelined
	allCPU := StepTimes(spec, Uniform(8, CPUAdam).Work(elems), 8, shape).Pipelined
	if auto >= allCPU {
		t.Fatalf("core-derived placement pipelined %.9g not strictly below all-CPU %.9g", auto, allCPU)
	}

	// Degenerate mappings.
	if FromCore(core.Plan{}, 8).Counts().GPU != 0 {
		t.Fatal("zero analytic plan should map to all-CPU")
	}
	if FromCore(cp, 0).NumBuckets() != 0 {
		t.Fatal("empty partition should map to an empty plan")
	}
	// A fully-retained analytic plan keeps one offloaded bucket only
	// when the analytic plan offloaded any; fully-GPU maps to fully-GPU.
	full := FromCore(core.Plan{NBuckets: 4, GPUBuckets: 4}, 8)
	if full.Counts().GPU != 8 {
		t.Fatalf("fully-retained plan mapped to %+v", full.Counts())
	}
}

func mustModel(t *testing.T, name string) model.Config {
	t.Helper()
	mc, err := model.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}
