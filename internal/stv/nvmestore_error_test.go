package stv

import (
	"testing"

	"superoffload/internal/hw"
	"superoffload/internal/place"
	"superoffload/internal/stv/stvtest"
)

// onePathStore builds what NewNVMeStore builds — one flash path, no
// cache tier, window 2 — with the path's backing file wrapped.
func onePathStore(t *testing.T, wrap func(int, PathFile) PathFile) *MLPStore {
	t.Helper()
	s, err := NewMLPStore(MLPStoreConfig{Dir: t.TempDir(), Paths: hw.IOPaths{hw.NodeNVMe()}, WrapPath: wrap})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// churn walks buckets [0,n) for a few rounds, bumping every master's
// first element each hold, and checks each Acquire against a mirror
// kept outside the store: whatever the flash lane lost, the state
// handed back must be exactly what was last released.
func churn(t *testing.T, s BucketStore, mirror map[int]float32, idxs []int, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for _, i := range idxs {
			st := s.Acquire(i)
			if got := st.Shard.Master[0]; got != mirror[i] {
				t.Fatalf("round %d: bucket %d master[0] = %v, want %v (stale state handed back)", r, i, got, mirror[i])
			}
			st.Shard.Master[0]++
			mirror[i]++
			s.Release(i, ReleaseStep)
		}
	}
}

// TestOnePathLatchedWriteBehindKeepsExactState: a write-behind flush has
// no waiter, so its failure can only latch. The single-lane store used
// to panic at the next Acquire; the contract now is that the path
// quarantines and every later Acquire — resident, replica-recovered or
// pinned — still returns exactly the last released state.
func TestOnePathLatchedWriteBehindKeepsExactState(t *testing.T) {
	// Ops 0-3 are the seed writes, 4 and 5 the first cold fetch and its
	// prefetch; op 6 is the first eviction's write-behind flush.
	inj := stvtest.NewInjector(stvtest.Fault{Path: 0, Kind: stvtest.FaultError, AfterOps: 6})
	s := onePathStore(t, inj.WrapPath)
	for i := 0; i < 4; i++ {
		s.Seed(i, make([]float32, 64))
	}
	churn(t, s, map[int]float32{}, []int{0, 1, 2, 3}, 4)

	if s.Err() == nil {
		t.Fatal("failed write-behind latched no error")
	}
	kinds := map[string]int{}
	for _, e := range s.Telemetry().Events {
		kinds[e.Kind]++
	}
	if kinds["quarantine"] != 1 || kinds["recover"] == 0 || kinds["pin"] == 0 {
		t.Errorf("want one quarantine plus recover and pin events, got %+v", kinds)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed the latched IO failure")
	}
}

// TestOnePathDeadFileRecovers drives the same contract with a real
// failure: the backing file is closed underneath the store, every
// later op errors with "file already closed", and the store recovers
// from its replicas and reports the failure from Err and Close.
func TestOnePathDeadFileRecovers(t *testing.T) {
	var backing PathFile
	s := onePathStore(t, func(_ int, f PathFile) PathFile { backing = f; return f })
	for i := 0; i < 4; i++ {
		s.Seed(i, make([]float32, 64))
	}
	mirror := map[int]float32{}
	churn(t, s, mirror, []int{0, 1, 2, 3}, 1)

	// Pull the device out from under the store.
	if err := backing.Close(); err != nil {
		t.Fatal(err)
	}
	churn(t, s, mirror, []int{0, 1, 2, 3}, 3)
	if s.Err() == nil {
		t.Fatal("no error latched after the backing file died")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed the latched IO failure")
	}
}

// TestPlacedStoreKeepsWorkingOverDeadFlash: a dead flash tier must not
// stop the placement layer — resident-tier acquires never touch it and
// NVMe-tier acquires recover exactly — and PlacedStore.Close reports the
// failure.
func TestPlacedStoreKeepsWorkingOverDeadFlash(t *testing.T) {
	plan := place.GPUTail(6, 2).WithNVMeBody()
	inj := stvtest.NewInjector(stvtest.Fault{Path: 0, Kind: stvtest.FaultError, AfterOps: 6})
	ps, err := NewPlacedStoreFlash(plan, func() (BucketStore, error) { return onePathStore(t, inj.WrapPath), nil })
	if err != nil {
		t.Fatal(err)
	}
	var flash, resident []int
	for i, tier := range plan.Tiers {
		ps.Seed(i, make([]float32, 32))
		if tier == place.NVMeWindow {
			flash = append(flash, i)
		} else {
			resident = append(resident, i)
		}
	}
	if len(flash) < 3 || len(resident) == 0 {
		t.Fatalf("plan needs a windowed body and a resident tail, got %v", plan.Tiers)
	}
	mirror := map[int]float32{}
	churn(t, ps, mirror, flash, 3)
	if ps.flash.(*MLPStore).Err() == nil {
		t.Fatal("flash tier latched no error despite the injected fault")
	}
	churn(t, ps, mirror, resident, 2)
	churn(t, ps, mirror, flash, 2)
	if err := ps.Close(); err == nil {
		t.Fatal("Close swallowed the flash tier's latched failure")
	}
}
