package place

import (
	"math"
	"testing"

	"superoffload/internal/hw"
)

// liveTerms flattens every Breakdown field an engine reads, in a fixed
// order: the step figures, then per tier its bucket count and its D2H,
// Adam, H2D and NVMe seconds.
func liveTerms(bd Breakdown) []float64 {
	out := []float64{bd.Backward, bd.Forward, bd.ActWrite, bd.ActRead, bd.ActStall, bd.Pipelined, bd.Serialized}
	for _, ts := range bd.Tiers {
		out = append(out, float64(ts.Buckets), ts.D2H, ts.Adam, ts.H2D, ts.NVMe)
	}
	return out
}

// TestStepTimesLiveTerms pins, as float64 bits, every Breakdown field on
// the shapes the engines feed the clock — a GPU tail over a CPU or flash
// body, the two activation tiers, and one rank's owned ZeRO shard — and
// that StepTimes allocates nothing on a shape without an activation tier.
func TestStepTimesLiveTerms(t *testing.T) {
	spec := hw.DefaultSuperchip()
	elems := toyElems(8)
	tail := GPUTail(8, 2)
	nvmeAct, dramAct := toyShape(), toyShape()
	nvmeAct.Act = ActShape{Layers: 6, Resident: 2, Heads: 4, NVMe: true}
	dramAct.Act = ActShape{Layers: 6, Resident: 2, Heads: 4}
	var owned []BucketWork
	for i := 1; i < 8; i += 2 {
		owned = append(owned, BucketWork{Index: i, Elems: elems[i], Tier: tail.Tier(i)})
	}
	for _, c := range []struct {
		name  string
		work  []BucketWork
		shape Shape
		want  []uint64
	}{
		{"gpu-tail+cpu", tail.Work(elems), toyShape(), []uint64{
			0x3ef7f5ef5a9c2085, 0, 0, 0, 0, 0x3f63dd96a25a158a, 0x3f64fb8819329555,
			0x4000000000000000, 0, 0x3ef0dfe3ba2cee99, 0, 0,
			0x4018000000000000, 0x3f0f90774138a587, 0x3f63ad8bb0cf1d92, 0x3f0f83b94d40c3ac, 0,
			0, 0, 0, 0, 0,
		}},
		{"gpu-tail+nvme", tail.WithNVMeBody().Work(elems), toyShape(), []uint64{
			0x3ef7f5ef5a9c2085, 0, 0, 0, 0, 0x3f649864cbab1c46, 0x3f6f1c6484f34b9a,
			0x4000000000000000, 0, 0x3ef0dfe3ba2cee99, 0, 0,
			0, 0, 0, 0, 0,
			0x4018000000000000, 0x3f0f90774138a587, 0x3f63ad8bb0cf1d92, 0x3f0f83b94d40c3ac, 0x3f5441b8d7816c8b,
		}},
		{"nvme+nvme-act", tail.WithNVMeBody().Work(elems), nvmeAct, []uint64{
			0x3ef7f5ef5a9c2085, 0x3ee7f5ef5a9c2085, 0x3f402920935108ba, 0x3f3d254d970a91b5, 0x3f4dec1e99c5087d, 0x3f64e4ed8682d9ee, 0x3f7371a62601be10,
			0x4000000000000000, 0, 0x3ef0dfe3ba2cee99, 0, 0,
			0, 0, 0, 0, 0,
			0x4018000000000000, 0x3f0f90774138a587, 0x3f63ad8bb0cf1d92, 0x3f0f83b94d40c3ac, 0x3f5441b8d7816c8b,
		}},
		{"dram-act", tail.Work(elems), dramAct, []uint64{
			0x3ef7f5ef5a9c2085, 0x3ee7f5ef5a9c2085, 0x3f0630689f1f9542, 0x3f06463a47146f66, 0x3f0f7c16951f730b, 0x3f64054a9cff4164, 0x3f65c55894260188,
			0x4000000000000000, 0, 0x3ef0dfe3ba2cee99, 0, 0,
			0x4018000000000000, 0x3f0f90774138a587, 0x3f63ad8bb0cf1d92, 0x3f0f83b94d40c3ac, 0,
			0, 0, 0, 0, 0,
		}},
		{"owned-subset", owned, toyShape(), []uint64{
			0x3ef7f5ef5a9c2085, 0, 0, 0, 0, 0x3f540da193e50d83, 0x3f552b73f7e7cd95,
			0x3ff0000000000000, 0, 0x3ee0dfe3ba2cee99, 0, 0,
			0x4008000000000000, 0x3eff90774138a588, 0x3f53ad8bb0cf1d91, 0x3eff83b94d40c3ac, 0,
			0, 0, 0, 0, 0,
		}},
	} {
		got := liveTerms(StepTimes(spec, c.work, 8, c.shape))
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d terms, want %d", c.name, len(got), len(c.want))
		}
		for i, v := range got {
			if math.Float64bits(v) != c.want[i] {
				t.Errorf("%s: term %d = %v (%#x), want %v (%#x)", c.name, i,
					v, math.Float64bits(v), math.Float64frombits(c.want[i]), c.want[i])
			}
		}
		if c.shape.Act.Layers > 0 {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { StepTimes(spec, c.work, 8, c.shape) }); n != 0 {
			t.Errorf("%s: StepTimes allocated %v times per call, want 0", c.name, n)
		}
	}
}
