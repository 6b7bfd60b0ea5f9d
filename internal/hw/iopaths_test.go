package hw

import "testing"

// TestSplitPathsConservesHardware: splitting one array into n lanes must
// neither create nor destroy bandwidth or capacity, and every lane pays
// the array's setup latency independently.
func TestSplitPathsConservesHardware(t *testing.T) {
	spec := NodeNVMe()
	for _, n := range []int{1, 2, 3, 4, 8} {
		paths := SplitPaths(spec, n)
		if len(paths) != n {
			t.Fatalf("SplitPaths(%d) produced %d lanes", n, len(paths))
		}
		var rbw, wbw float64
		var cap int64
		for _, lane := range paths {
			rbw += lane.ReadBW
			wbw += lane.WriteBW
			cap += lane.Capacity
			if lane.LatencyS != spec.LatencyS {
				t.Fatalf("n=%d: lane latency %v != array latency %v", n, lane.LatencyS, spec.LatencyS)
			}
		}
		if rbw != spec.ReadBW || wbw != spec.WriteBW {
			t.Errorf("n=%d: bandwidth not conserved: read %v want %v, write %v want %v",
				n, rbw, spec.ReadBW, wbw, spec.WriteBW)
		}
		// Integer division may shed a remainder byte per lane, never gain.
		if cap > spec.Capacity || cap < spec.Capacity-int64(n) {
			t.Errorf("n=%d: capacity %d drifted from %d", n, cap, spec.Capacity)
		}
	}
}

// TestSplitPathsDegenerate: n < 1 clamps to a single lane.
func TestSplitPathsDegenerate(t *testing.T) {
	spec := NodeNVMe()
	if got := SplitPaths(spec, 0); len(got) != 1 || got[0] != spec {
		t.Fatalf("SplitPaths(spec, 0) = %+v, want the spec as one lane", got)
	}
}

// TestNodeIOPathsSingleLaneMatchesLegacySpec: NodeIOPaths(1) must be the
// RAID exactly, so the facade's -io-paths 1 default models the same
// hardware as the legacy single-lane store.
func TestNodeIOPathsSingleLaneMatchesLegacySpec(t *testing.T) {
	paths := NodeIOPaths(1)
	if len(paths) != 1 || paths[0] != NodeNVMe() {
		t.Fatalf("NodeIOPaths(1) = %+v, want exactly [NodeNVMe()]", paths)
	}
}
