package dp

import (
	"testing"

	"superoffload/internal/hw"
	"superoffload/internal/stv"
	"superoffload/internal/stv/stvtest"
)

// mlpFaultFactory gives every rank its own multi-path store with an
// armed per-rank fault injector, and records the store handles so the
// test can inspect degradation telemetry after the run. Each rank's
// injector errors one path (alternating by rank) a few ops into real
// training — after the ~seed-write prefix — so every rank quarantines a
// path mid-run and re-routes its stripes.
func mlpFaultFactory(t *testing.T, stores map[int]*stv.MLPStore) func(rank int) (stv.BucketStore, error) {
	t.Helper()
	dir := t.TempDir()
	return func(rank int) (stv.BucketStore, error) {
		inj := stvtest.NewInjector(stvtest.Fault{Path: rank % 2, Kind: stvtest.FaultError, AfterOps: 10})
		s, err := stv.NewMLPStore(stv.MLPStoreConfig{
			Dir:             dir,
			Paths:           hw.NodeIOPaths(2),
			ResidentBuckets: 2,
			WrapPath:        inj.WrapPath,
		})
		if err != nil {
			return nil, err
		}
		stores[rank] = s
		return s, nil
	}
}

// assertDegraded checks one rank's store recorded the quarantine and
// the DRAM recovery (or stripe re-route) the injected fault forces.
func assertDegraded(t *testing.T, rank int, s *stv.MLPStore) {
	t.Helper()
	if s.Err() == nil {
		t.Errorf("rank %d: store latched no error despite the injected fault", rank)
	}
	kinds := map[string]int{}
	for _, e := range s.Telemetry().Events {
		kinds[e.Kind]++
	}
	if kinds["quarantine"] == 0 {
		t.Errorf("rank %d: no quarantine event: %+v", rank, s.Telemetry().Events)
	}
	if kinds["recover"]+kinds["reroute"] == 0 {
		t.Errorf("rank %d: nothing recovered or re-routed: %+v", rank, s.Telemetry().Events)
	}
}

// TestDPFaultInjectionGracefulDegradation: DP-2 with every rank's shard
// behind a degrading multi-path store — one flash path erroring mid-run
// on each rank — must reproduce the single-rank DRAM trainer bit for
// bit, and the engine's Close must surface the ranks' latched path
// errors (closeStores aggregation), not swallow them.
func TestDPFaultInjectionGracefulDegradation(t *testing.T) {
	stores := map[int]*stv.MLPStore{}
	cfg := shapeConfig(2, 1, 1)
	cfg.BucketElems = 4000
	cfg.NewStore = mlpFaultFactory(t, stores)
	ref := stvConfig(cfg)
	eng, trainer, dpLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: ref, steps: 25, accum: 1, dataSeed: 123, batch: 4, seq: 8})
	defer trainer.Close()
	assertSameTrajectory(t, dpLosses, refLosses, eng, trainer)
	if len(stores) != 2 {
		t.Fatalf("expected 2 per-rank stores, got %d", len(stores))
	}
	for rank, s := range stores {
		assertDegraded(t, rank, s)
	}
	if err := eng.Close(); err == nil {
		t.Fatal("engine Close swallowed the ranks' latched path errors")
	}
}

// TestMeshFaultInjectionGracefulDegradation: the same degradation
// contract on the 2×2 mesh — every (group, sequence) rank's store loses
// a path mid-run, the trajectory stays bit-exact, and Close reports the
// failure.
func TestMeshFaultInjectionGracefulDegradation(t *testing.T) {
	stores := map[int]*stv.MLPStore{}
	cfg := shapeConfig(2, 2, 1)
	// Small buckets: each mesh rank's shard must span more buckets than
	// the 2-slot window, or nothing streams and the fault never fires.
	cfg.BucketElems = 4000
	cfg.NewStore = mlpFaultFactory(t, stores)
	refCfg := stvConfig(cfg)
	eng, ref, meshLosses, refLosses := runPair(t, pairRun{gpt: tinyGPT, cfg: cfg, ref: refCfg, steps: 15, accum: 1, dataSeed: 123, batch: 4, seq: 8})
	defer ref.Close()
	assertSameTrajectory(t, meshLosses, refLosses, eng, ref)
	if len(stores) != 4 {
		t.Fatalf("expected one store per mesh rank, got %d", len(stores))
	}
	for rank, s := range stores {
		assertDegraded(t, rank, s)
	}
	if err := eng.Close(); err == nil {
		t.Fatal("mesh Close swallowed the ranks' latched path errors")
	}
}
