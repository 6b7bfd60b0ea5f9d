package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable1Ratios(t *testing.T) {
	// The paper's Table 1 GPU/CPU FLOPS ratios: DGX-2 ~60.39,
	// DGX-A100 ~135.65, GH200 ~330.
	cases := []struct {
		chip Chip
		want float64
	}{
		{DGX2(), 60.39},
		{DGXA100(), 135.65},
		{GH200(), 330.0},
	}
	for _, c := range cases {
		got := c.chip.FLOPSRatio()
		if math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("%s FLOPS ratio = %.2f, want ~%.2f", c.chip.Name, got, c.want)
		}
	}
}

func TestTable1Bandwidths(t *testing.T) {
	gh := GH200()
	if gh.CPU.MemBW != 500*GB {
		t.Errorf("Grace CPU BW = %.0f GB/s, want 500", gh.CPU.MemBW/GB)
	}
	if got := gh.Link.PeakBW * 2; got != 900*GB { // 450 per direction
		t.Errorf("C2C total BW = %.0f GB/s, want 900", got/GB)
	}
	if DGX2().Link.PeakBW != 32*GB {
		t.Errorf("DGX-2 link = %.0f, want 32 GB/s", DGX2().Link.PeakBW/GB)
	}
	if DGXA100().Link.PeakBW != 64*GB {
		t.Errorf("DGX-A100 link = %.0f, want 64 GB/s", DGXA100().Link.PeakBW/GB)
	}
}

func TestRegistryOrderAndNames(t *testing.T) {
	reg := Registry()
	want := []string{"DGX-2", "DGX-A100", "GH200"}
	if len(reg) != len(want) {
		t.Fatalf("registry size %d, want %d", len(reg), len(want))
	}
	for i, c := range reg {
		if c.Name != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, c.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("GH200")
	if err != nil || c.Name != "GH200" {
		t.Fatalf("ByName(GH200) = %v, %v", c, err)
	}
	if _, err := ByName("TPUv9"); err == nil {
		t.Fatal("ByName(TPUv9) should fail")
	}
}

func TestGH200NVL2HasSmallerDDR(t *testing.T) {
	if GH200NVL2().CPU.MemBytes != 240*GiB {
		t.Errorf("NVL2 DDR = %d GiB, want 240", GH200NVL2().CPU.MemBytes/GiB)
	}
	if GH200().CPU.MemBytes != 480*GiB {
		t.Errorf("GH200 DDR = %d GiB, want 480", GH200().CPU.MemBytes/GiB)
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	l := NVLinkC2C()
	f := func(a, b uint32) bool {
		sa, sb := int64(a%(1<<28))+1, int64(b%(1<<28))+1
		if sa > sb {
			sa, sb = sb, sa
		}
		return l.TransferTime(sa, HostToDevice, Pinned) <= l.TransferTime(sb, HostToDevice, Pinned)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEffectiveBWSaturates(t *testing.T) {
	l := NVLinkC2C()
	small := l.EffectiveBW(1*MiB, HostToDevice, Pinned)
	big := l.EffectiveBW(64*MiB, HostToDevice, Pinned)
	if small >= big {
		t.Errorf("1MB bw %.0f >= 64MB bw %.0f", small/GB, big/GB)
	}
	// Fig. 7: small tensors as low as ~50-100 GB/s, 64 MB near plateau.
	if small > 150*GB {
		t.Errorf("1MB effective bw %.0f GB/s, expected <150 (latency bound)", small/GB)
	}
	if big < 0.8*l.PeakBW {
		t.Errorf("64MB effective bw %.0f GB/s, expected >80%% of peak %.0f", big/GB, l.PeakBW/GB)
	}
}

func TestSaturationKneeNear64MB(t *testing.T) {
	// §4.3: "C2C bandwidth increases with tensor size until saturation
	// occurs at approximately 64 MB".
	l := NVLinkC2C()
	frac := func(size int64) float64 { return l.EffectiveBW(size, HostToDevice, Pinned) / l.PeakBW }
	if below, above := frac(8*MiB), frac(128*MiB); below >= 0.85 || above < 0.85 {
		t.Errorf("effective bandwidth is %.2f of peak at 8 MiB and %.2f at 128 MiB, want 0.85 crossed between them", below, above)
	}
}

func TestUnpinnedSlowerThanPinned(t *testing.T) {
	l := NVLinkC2C()
	f := func(a uint32) bool {
		s := int64(a%(1<<28)) + 1024
		return l.TransferTime(s, DeviceToHost, Unpinned) > l.TransferTime(s, DeviceToHost, Pinned)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestD2HAsymmetry(t *testing.T) {
	l := NVLinkC2C()
	d2h := l.EffectiveBW(128*MiB, DeviceToHost, Pinned)
	h2d := l.EffectiveBW(128*MiB, HostToDevice, Pinned)
	if d2h <= h2d {
		t.Errorf("expected D2H (%.0f) > H2D (%.0f) per Fig. 7", d2h/GB, h2d/GB)
	}
}

func TestBandwidthSweepShape(t *testing.T) {
	pts := NVLinkC2C().BandwidthSweep(256 * MiB)
	if len(pts) < 8 {
		t.Fatalf("sweep has %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].H2DBps < pts[i-1].H2DBps {
			t.Errorf("H2D bandwidth not monotone at %d MiB", pts[i].SizeBytes/MiB)
		}
	}
}

func TestCollectiveTime(t *testing.T) {
	link := NVLink4()
	size := int64(1 * GiB)
	ar := CollectiveTime(AllReduce, 4, size, link)
	ag := CollectiveTime(AllGather, 4, size, link)
	rs := CollectiveTime(ReduceScatter, 4, size, link)
	if ar <= ag || ar <= rs {
		t.Errorf("all-reduce (%.3f) should cost more than all-gather (%.3f)/reduce-scatter (%.3f)", ar, ag, rs)
	}
	if got := CollectiveTime(AllReduce, 1, size, link); got != 0 {
		t.Errorf("1-rank collective = %v, want 0", got)
	}
	// Volume check: 4-rank all-gather moves 3/4 of size.
	wantMin := 0.75 * float64(size) / link.PeakBW
	if ag < wantMin {
		t.Errorf("all-gather %.4fs below bandwidth bound %.4fs", ag, wantMin)
	}
}

func TestAdamStepTimeOrdering(t *testing.T) {
	c := GH200()
	n := int64(1e9)
	naive := AdamStepTime(c, AdamNaive, n)
	cpu := AdamStepTime(c, AdamCPU, n)
	grace := AdamStepTime(c, AdamGrace, n)
	gpu := AdamStepTime(c, AdamGPU, n)
	if !(naive > cpu && cpu > grace && grace > gpu) {
		t.Errorf("ordering violated: naive=%v cpu=%v grace=%v gpu=%v", naive, cpu, grace, gpu)
	}
	// Table 3 ratios at 1B params: PT-CPU/GraceAdam ≈ 3.5, CPU-Adam/GraceAdam ≈ 1.2-1.3.
	if r := naive / grace; r < 2.8 || r > 4.2 {
		t.Errorf("PT-CPU/GraceAdam ratio %.2f, want ~3.5", r)
	}
	if r := cpu / grace; r < 1.1 || r > 1.5 {
		t.Errorf("CPU-Adam/GraceAdam ratio %.2f, want ~1.27", r)
	}
	// Table 3 magnitude: GraceAdam 1B ≈ 0.082 s.
	if grace < 0.05 || grace > 0.12 {
		t.Errorf("GraceAdam 1B = %.3fs, want ≈0.082s", grace)
	}
}

func TestAdamStepTimeLinearInParams(t *testing.T) {
	c := GH200()
	f := func(a uint32) bool {
		n := int64(a%1000)*1e6 + 1e6
		t1 := AdamStepTime(c, AdamGrace, n)
		t2 := AdamStepTime(c, AdamGrace, 2*n)
		return math.Abs(t2-2*t1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGEMMEfficiencyMonotoneInHidden(t *testing.T) {
	prev := 0.0
	for _, h := range []int{1024, 2048, 3072, 4096, 8192, 16384} {
		e := GEMMEfficiency(h, 1024)
		if e <= prev {
			t.Errorf("efficiency not increasing at hidden %d", h)
		}
		if e > GEMMEfficiencyMax {
			t.Errorf("efficiency %.3f exceeds max", e)
		}
		prev = e
	}
}

func TestAchievableFLOPSCalibration(t *testing.T) {
	// Table 2 best throughput is 238.9 TFLOPS on a 5B model
	// (hidden 3072); achievable FLOPS must exceed that for it to be
	// reachable, with margin for residual idle time.
	got := AchievableGPUFLOPS(GH200(), 3072, 1024)
	if got < 230e12 || got > 280e12 {
		t.Errorf("achievable at hidden 3072 = %.0f TFLOPS, want ~240-260", got/1e12)
	}
}

func TestCastTimeGPUFasterThanCPU(t *testing.T) {
	c := GH200()
	for _, n := range []int64{1 << 20, 1 << 24, 1 << 28} {
		if CastTime(c, true, n) >= CastTime(c, false, n) {
			t.Errorf("GPU cast should beat CPU cast at n=%d", n)
		}
	}
}

func TestClusterTopology(t *testing.T) {
	cl := NewGH200Cluster(8, 2)
	if cl.TotalChips() != 16 {
		t.Errorf("chips = %d, want 16", cl.TotalChips())
	}
	if chip := cl.Node.Chip; chip.GPU.MemBytes != 96*GiB || chip.CPU.MemBytes != 240*GiB {
		t.Errorf("per-chip memory = %d GiB HBM, %d GiB DDR, want 96 and 240", chip.GPU.MemBytes/GiB, chip.CPU.MemBytes/GiB)
	}
	if cl.Network.Name != "Slingshot-11" {
		t.Errorf("network = %s", cl.Network.Name)
	}
}

func TestClusterFor(t *testing.T) {
	if c := ClusterFor(1); c.TotalChips() != 1 || c.Node.Chip.CPU.MemBytes != 480*GiB {
		t.Errorf("ClusterFor(1) wrong: %v", c)
	}
	if c := ClusterFor(4); c.TotalChips() != 4 || c.Node.Chip.CPU.MemBytes != 240*GiB {
		t.Errorf("ClusterFor(4) wrong: %v", c)
	}
	if c := ClusterFor(16); c.TotalChips() != 16 {
		t.Errorf("ClusterFor(16) = %d chips", c.TotalChips())
	}
}

func TestDataParallelLink(t *testing.T) {
	cl := NewGH200Cluster(4, 4)
	if l := cl.DataParallelLink(4); l.Name != "NVLink4" {
		t.Errorf("intra-node DP should use NVLink, got %s", l.Name)
	}
	if l := cl.DataParallelLink(16); l.Name != "Slingshot-11" {
		t.Errorf("inter-node DP should use Slingshot, got %s", l.Name)
	}
}

func TestNUMABinding(t *testing.T) {
	// §4.7: a rank bound to the wrong Superchip's cores sends its host
	// traffic over the cross-NUMA path, which must hurt substantially.
	n := NewGH200Node(4)
	localT := n.Chip.Link.TransferTime(64*MiB, DeviceToHost, Pinned)
	crossT := n.CrossNUMA.TransferTime(64*MiB, DeviceToHost, Pinned)
	if crossT < 3*localT {
		t.Errorf("cross-NUMA transfer %.6f not ≫ local %.6f", crossT, localT)
	}
}

func TestDirectionAndPinningStrings(t *testing.T) {
	if HostToDevice.String() != "H2D" || DeviceToHost.String() != "D2H" {
		t.Error("direction strings")
	}
	if Pinned.String() != "pinned" || Unpinned.String() != "unpinned" {
		t.Error("pinning strings")
	}
	for k := AllReduce; k <= Broadcast; k++ {
		if k.String() == "unknown" {
			t.Errorf("collective %d has no name", k)
		}
	}
	for _, a := range []AdamImpl{AdamNaive, AdamCPU, AdamGrace, AdamGPU} {
		if a.String() == "unknown" {
			t.Errorf("adam impl %d has no name", a)
		}
	}
}
