package stv

import "superoffload/internal/place"

// PlacedStore routes bucket residency by placement tier: GPU-resident and
// CPU-tier buckets stay permanently resident (DRAM semantics — in the
// modeled system the tail lives in HBM and the body in host DRAM), while
// NVMe-tier buckets spill through the windowed flash store (MLPStore)
// between touches. The inner store is only created when the plan
// actually has NVMe buckets, and its prefetch cycle covers exactly the
// NVMe-tier indices seeded into it. A degraded flash tier never stops a
// resident-tier acquire: its latched error is reported by Close.
type PlacedStore struct {
	tiers []place.Tier
	dram  *DRAMStore
	flash BucketStore // nil when the plan has no NVMe-tier buckets
}

// NewPlacedStoreFlash builds a store for the plan with the flash tier
// supplied by newFlash (an NVMeStore, or the facade's configured
// MLPStore). newFlash is only called when the plan has NVMe-tier
// buckets.
func NewPlacedStoreFlash(plan place.Plan, newFlash func() (BucketStore, error)) (*PlacedStore, error) {
	s := &PlacedStore{
		tiers: append([]place.Tier(nil), plan.Tiers...),
		dram:  NewDRAMStore(),
	}
	if plan.Counts().NVMe > 0 {
		flash, err := newFlash()
		if err != nil {
			return nil, err
		}
		s.flash = flash
	}
	return s, nil
}

// route picks the backing store for a bucket index. Indices beyond the
// plan default to resident (place.Plan.Tier's graceful default).
func (s *PlacedStore) route(idx int) BucketStore {
	if s.flash != nil && idx >= 0 && idx < len(s.tiers) && s.tiers[idx] == place.NVMeWindow {
		return s.flash
	}
	return s.dram
}

// Seed installs the bucket's initial state in its tier's backing store.
func (s *PlacedStore) Seed(idx int, master []float32) { s.route(idx).Seed(idx, master) }

// Acquire makes the bucket's state resident and returns it.
func (s *PlacedStore) Acquire(idx int) *BucketState { return s.route(idx).Acquire(idx) }

// Release ends the hold started by Acquire.
func (s *PlacedStore) Release(idx int, mode ReleaseMode) { s.route(idx).Release(idx, mode) }

// Close releases the inner flash store's backing resources (no-op for
// the resident tiers).
func (s *PlacedStore) Close() error {
	err := s.dram.Close()
	if s.flash != nil {
		if nerr := s.flash.Close(); err == nil {
			err = nerr
		}
	}
	return err
}

// NVMeTelemetry implements TelemetrySource: the inner flash store's
// modeled accounting, present only when the plan has NVMe-tier buckets.
func (s *PlacedStore) NVMeTelemetry() (StoreTelemetry, bool) {
	if src, ok := s.flash.(TelemetrySource); ok {
		return src.NVMeTelemetry()
	}
	return StoreTelemetry{}, false
}
