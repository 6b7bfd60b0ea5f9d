package baselines

import (
	"testing"

	"superoffload/internal/hw"
	"superoffload/internal/sched"
)

func TestNVMeExtendsCapacityBeyondDDR(t *testing.T) {
	// With the NVMe tier, even a 200B model fits a single Superchip
	// (optimizer states on flash) — far beyond the 25B DDR bound.
	cl := hw.ClusterFor(1)
	got := sched.MaxTrainable(ZeROInfinityNVMe, cl, 8, 1024)
	if got.Params() < 150e9 {
		t.Errorf("NVMe tier max = %s, expected ≥150B on one chip", got.Name)
	}
	ddr := sched.MaxTrainable(ZeROInfinity, cl, 8, 1024)
	if got.Params() <= ddr.Params() {
		t.Errorf("NVMe (%s) should exceed DDR-bound ZeRO-Infinity (%s)", got.Name, ddr.Name)
	}
}

func TestNVMeThroughputPenalty(t *testing.T) {
	// The extra tier costs throughput where both fit: swap traffic is
	// exposed on the synchronous schedule.
	w := wl(1, "13B", 8)
	nvme := ZeROInfinityNVMe.Plan(w)
	ddr := ZeROInfinity.Plan(w)
	if !nvme.Fits || !ddr.Fits {
		t.Fatal("13B must fit both variants")
	}
	if nvme.TFLOPS >= ddr.TFLOPS {
		t.Errorf("NVMe variant (%.1f) should trail DDR variant (%.1f)", nvme.TFLOPS, ddr.TFLOPS)
	}
}

func TestNVMeSpecTimes(t *testing.T) {
	n := hw.NodeNVMe()
	if n.ReadTime(0) != 0 || n.WriteTime(0) != 0 {
		t.Error("zero-size IO should be free")
	}
	if n.WriteTime(1<<30) <= n.ReadTime(1<<30) {
		t.Error("writes are slower than reads on NVMe")
	}
	if n.OptimizerSwapTime(1e9) <= 0 {
		t.Error("swap time must be positive")
	}
	// 1B params: 16 GB read @25 GB/s + 16 GB write @12 GB/s ≈ 1.97 s.
	got := n.OptimizerSwapTime(1e9)
	if got < 1.5 || got > 2.5 {
		t.Errorf("1B swap = %.2fs, expected ≈2s", got)
	}
}

func TestStepSwapTimeComposesSpecPrimitives(t *testing.T) {
	// The shared per-step model must be exactly the spec's primitives —
	// no second copy of the bandwidth math anywhere.
	n := hw.NodeNVMe()
	const params = int64(1e9)
	want := n.OptimizerSwapTime(params) + 2*n.ReadTime(2*params)
	if got := n.StepSwapTime(params, 2, 2); got != want {
		t.Errorf("StepSwapTime = %v, want %v", got, want)
	}
	if n.StepSwapTime(params, 2, 0) != n.OptimizerSwapTime(params) {
		t.Error("zero weight passes should reduce to the optimizer swap alone")
	}
}
