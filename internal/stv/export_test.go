package stv

import "testing"

// CheckResidency exposes checkResidency to the package's external tests.
var CheckResidency = checkResidency

// checkResidency asserts the store's residency invariants: the window
// holds at most ResidentBuckets records plus the pinned ones, the cache
// at most CacheBuckets, only bucket held (-1 for none) is held, the tier
// counts match the records, and every record outside the window has its
// state's current version in its current slot — the version a fetch
// decodes into and recovery restores.
func checkResidency(t testing.TB, s *MLPStore, held int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var count [3]int
	pinned := 0
	for idx, rec := range s.recs {
		count[rec.tier]++
		if rec.pinned {
			pinned++
		}
		if rec.held != (idx == held) {
			t.Fatalf("bucket %d: held %v, want %v", idx, rec.held, idx == held)
		}
		if rec.tier != inWindow && rec.st.slot != rec.slot {
			t.Fatalf("bucket %d outside the window: state on version %d, record on slot %d", idx, rec.st.slot, rec.slot)
		}
	}
	if count != s.count {
		t.Fatalf("records per tier %v, store counts %v", count, s.count)
	}
	if count[inWindow] > s.cfg.ResidentBuckets+pinned {
		t.Fatalf("window overflow: %d resident > %d + %d pinned", count[inWindow], s.cfg.ResidentBuckets, pinned)
	}
	if count[inCache] > max(s.cfg.CacheBuckets, 0) {
		t.Fatalf("cache overflow: %d cached > %d", count[inCache], s.cfg.CacheBuckets)
	}
}
