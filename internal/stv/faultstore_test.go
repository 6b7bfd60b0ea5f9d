package stv_test

import (
	"io"
	"strings"
	"testing"
	"time"

	"superoffload/internal/data"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
	"superoffload/internal/stv/stvtest"
	"superoffload/internal/tensor"
)

// faultTrainer builds the standard tiny-GPT training setup over the
// given store (nil = DRAM), mirroring the in-package test helpers from
// the outside.
func faultTrainer(store stv.BucketStore) *engine {
	a := optim.DefaultConfig()
	a.LR = 3e-3
	cfg := config{Config: stv.Config{Adam: a, ClipNorm: 1.0, BucketElems: 4000, Mode: stv.STV}, Store: store}
	gpt := nn.NewGPT(model.Config{Name: "t", Layers: 2, Hidden: 32, Heads: 2, Vocab: 64}, 16, tensor.NewRNG(42))
	return newEngine(gpt, cfg)
}

func faultTrain(t *testing.T, tr *engine, steps int) {
	t.Helper()
	corpus := data.NewCorpus(64, 123)
	for i := 0; i < steps; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

func eventKinds(events []stv.PathEvent) map[string]int {
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	return kinds
}

// TestFaultInjectionGracefulDegradation is the single-rank
// fault-injection matrix: for each fault mode — a path erroring its IO,
// a path silently dropping writes (caught by the record checksums), and
// a path stalling (caught by the SlowOpWall watchdog) — training over
// the degraded store must stay bit-identical to the resident engine, the
// telemetry must show the one quarantine and the DRAM recovery, and
// Close must still report that the hardware failed underneath. The
// one-path rows are the single-lane store's contract: its only path
// dies, so every bucket recovers from its replica and pins to DRAM; the
// dropped-write row there is the regression for the record checksum the
// single lane used to lack (a lost write decoded as a well-formed stale
// record).
func TestFaultInjectionGracefulDegradation(t *testing.T) {
	dram := faultTrainer(nil)
	t.Cleanup(func() { dram.Close() })
	faultTrain(t, dram, 25)

	cases := []struct {
		name  string
		paths int
		inj   *stvtest.Injector
		wall  time.Duration
		cache int
	}{
		// Seed writes round-robin ~6 ops onto each of the 2 paths, so
		// AfterOps 10 trips the fault a few IOs into real training.
		{"write-read-errors", 2, stvtest.NewInjector(stvtest.Fault{Path: 1, Kind: stvtest.FaultError, AfterOps: 10}), 0, 0},
		{"dropped-writes", 2, stvtest.NewInjector(stvtest.Fault{Path: 0, Kind: stvtest.FaultDrop, AfterOps: 10}), 0, 0},
		{"stalled-path", 2, stvtest.NewInjector(stvtest.Fault{Path: 1, Kind: stvtest.FaultStall, AfterOps: 10, Delay: 150 * time.Millisecond}), 30 * time.Millisecond, 0},
		{"errors-with-cache-tier", 2, stvtest.NewInjector(stvtest.Fault{Path: 0, Kind: stvtest.FaultError, AfterOps: 12}), 0, 2},
		// One path: every seed write lands on path 0, so AfterOps 20.
		{"one-path-errors", 1, stvtest.NewInjector(stvtest.Fault{Path: 0, Kind: stvtest.FaultError, AfterOps: 20}), 0, 0},
		{"one-path-dropped-writes", 1, stvtest.NewInjector(stvtest.Fault{Path: 0, Kind: stvtest.FaultDrop, AfterOps: 20}), 0, 0},
		{"one-path-stalled", 1, stvtest.NewInjector(stvtest.Fault{Path: 0, Kind: stvtest.FaultStall, AfterOps: 20, Delay: 150 * time.Millisecond}), 30 * time.Millisecond, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store, err := stv.NewMLPStore(stv.MLPStoreConfig{
				Dir:             t.TempDir(),
				Paths:           hw.NodeIOPaths(c.paths),
				ResidentBuckets: 2,
				CacheBuckets:    c.cache,
				WrapPath:        c.inj.WrapPath,
				SlowOpWall:      c.wall,
			})
			if err != nil {
				t.Fatal(err)
			}
			tr := faultTrainer(store)
			faultTrain(t, tr, 25)

			sameWeights(t, dram.MasterWeights(), tr.MasterWeights())
			if dram.Stats() != tr.Stats() {
				t.Errorf("stats diverge: dram %+v vs faulty %+v", dram.Stats(), tr.Stats())
			}
			if store.Err() == nil {
				t.Error("store latched no error despite the injected fault")
			}
			kinds := eventKinds(store.Telemetry().Events)
			if kinds["quarantine"] != 1 {
				t.Errorf("want exactly one quarantine event, got %+v", store.Telemetry().Events)
			}
			if kinds["recover"]+kinds["reroute"] == 0 {
				t.Errorf("path failed but nothing recovered or re-routed: %+v", store.Telemetry().Events)
			}
			if c.paths == 1 && (kinds["recover"] == 0 || kinds["pin"] == 0) {
				t.Errorf("last path died but buckets did not recover and pin to DRAM: %+v", kinds)
			}
			cerr := tr.Close()
			if cerr == nil {
				t.Fatal("Close swallowed the latched path error")
			}
			if want := "path"; !strings.Contains(cerr.Error(), want) || !strings.Contains(cerr.Error(), "failed") {
				t.Errorf("Close error %q does not report the path failure", cerr)
			}
		})
	}
}

// TestFaultAllPathsDead: when every path is quarantined, modified
// buckets pin to the DRAM tier instead of spilling — training still
// completes bit-exactly and Close still reports the first failure.
func TestFaultAllPathsDead(t *testing.T) {
	dram := faultTrainer(nil)
	t.Cleanup(func() { dram.Close() })
	faultTrain(t, dram, 25)

	inj := stvtest.NewInjector(
		stvtest.Fault{Path: 0, Kind: stvtest.FaultError, AfterOps: 10},
		stvtest.Fault{Path: 1, Kind: stvtest.FaultError, AfterOps: 12},
	)
	store, err := stv.NewMLPStore(stv.MLPStoreConfig{
		Dir:             t.TempDir(),
		Paths:           hw.NodeIOPaths(2),
		ResidentBuckets: 2,
		WrapPath:        inj.WrapPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := faultTrainer(store)
	faultTrain(t, tr, 25)
	sameWeights(t, dram.MasterWeights(), tr.MasterWeights())
	kinds := eventKinds(store.Telemetry().Events)
	if kinds["quarantine"] != 2 {
		t.Errorf("expected both paths quarantined, got events %+v", store.Telemetry().Events)
	}
	if kinds["pin"] == 0 {
		t.Error("no bucket pinned to the DRAM tier with every path dead")
	}
	if err := tr.Close(); err == nil {
		t.Fatal("Close swallowed the latched path errors")
	}
}

// TestFaultRecoveredBucketReroutesOnce: a bucket recovered from DRAM on
// an acquire that would otherwise be clean — a checkpoint Save touches
// every bucket without stepping it — must still re-enter the window
// modified, so its next eviction re-routes the record off the dead path
// and no later acquire recovers it again. Path 1 fails at its first IO.
// That is always bucket 1's seed write: the path's first read is bucket
// 1's fetch, which waits for that write. The failure quarantines the
// path and so loses every odd bucket's record before the Save.
func TestFaultRecoveredBucketReroutesOnce(t *testing.T) {
	inj := stvtest.NewInjector(stvtest.Fault{Path: 1, Kind: stvtest.FaultError, AfterOps: 0})
	store, err := stv.NewMLPStore(stv.MLPStoreConfig{
		Dir:             t.TempDir(),
		Paths:           hw.NodeIOPaths(2),
		ResidentBuckets: 2,
		WrapPath:        inj.WrapPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := faultTrainer(store)
	t.Cleanup(func() { tr.Close() })
	if err := tr.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(64, 123)
	for i := 0; i < 2; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	events := store.Telemetry().Events
	recovered, rerouted := map[int]bool{}, map[int]bool{}
	for _, e := range events {
		switch e.Kind {
		case "recover":
			if recovered[e.Bucket] {
				t.Errorf("bucket %d recovered twice: %+v", e.Bucket, events)
			}
			recovered[e.Bucket] = true
		case "reroute":
			rerouted[e.Bucket] = recovered[e.Bucket]
		}
	}
	if len(recovered) == 0 {
		t.Fatalf("no bucket recovered; the fault did not trip: %+v", events)
	}
	for b := range recovered {
		if !rerouted[b] {
			t.Errorf("bucket %d recovered but never re-routed off the dead path: %+v", b, events)
		}
	}
}

func sameWeights(t *testing.T, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("weight counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weights diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
