package place

import (
	"testing"

	"superoffload/internal/hw"
)

// TestStepTimesLegacySpecHasNoPathAccounting: a spec without IOPaths
// must take the legacy single-lane model — no per-path occupancy
// breakdown (nil, not empty, so the zero value round-trips through
// reflect.DeepEqual comparisons unchanged).
func TestStepTimesLegacySpecHasNoPathAccounting(t *testing.T) {
	bd := StepTimes(hw.DefaultSuperchip(), Uniform(8, NVMeWindow).Work(toyElems(8)), 8, toyShape())
	if bd.NVMePathSeconds != nil {
		t.Fatalf("legacy spec produced path accounting: %v", bd.NVMePathSeconds)
	}
}

// TestStepTimesMultiPathBeatsSinglePath pins the modeled win the
// multi-path layer exists for: with latency-dominated records, two
// split lanes (same total hardware) pay their per-IO setup latency
// concurrently and strictly beat one lane under the same path-charged
// clock model.
func TestStepTimesMultiPathBeatsSinglePath(t *testing.T) {
	elems := toyElems(8) // 4096-elem buckets: ~98 KB records, latency-dominated
	plan := Uniform(8, NVMeWindow)
	shape := toyShape()
	run := func(n int) Breakdown {
		spec := hw.DefaultSuperchip()
		spec.IOPaths = hw.SplitPaths(spec.NVMe, n)
		return StepTimes(spec, plan.Work(elems), 8, shape)
	}
	one, two := run(1), run(2)
	if len(one.NVMePathSeconds) != 1 || len(two.NVMePathSeconds) != 2 {
		t.Fatalf("path accounting shape wrong: %v / %v", one.NVMePathSeconds, two.NVMePathSeconds)
	}
	for i, busy := range two.NVMePathSeconds {
		if busy <= 0 {
			t.Fatalf("path %d never used: %v", i, two.NVMePathSeconds)
		}
	}
	if two.Pipelined >= one.Pipelined {
		t.Errorf("2-lane pipelined %.9g not below 1-lane %.9g", two.Pipelined, one.Pipelined)
	}
	for _, bd := range []Breakdown{one, two} {
		if bd.Pipelined > bd.Serialized || bd.Pipelined < bd.Backward {
			t.Errorf("clock invariants broken: %+v", bd)
		}
	}
}
