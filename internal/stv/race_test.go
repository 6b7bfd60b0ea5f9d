package stv_test

import (
	"bytes"
	"testing"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/optim"
	"superoffload/internal/place"
	"superoffload/internal/stv"
)

// TestPendingVerdictStress hammers the Step/StepAccum/Flush/Save/Load
// interleavings that leave a step's verdict pending, over dozens of tiny
// buckets with rollbacks nearly every step and injected overflows: a
// verdict pending across the next window's first forward must resolve
// once, before that window stages gradients; Save must be refused while
// one is pending; Flush must resolve it; and a Load must leave the
// trainer able to step and resolve again. The counters must add up.
func TestPendingVerdictStress(t *testing.T) {
	cfg := trainerConfig(stv.STV)
	cfg.BucketElems = 400 // dozens of buckets
	cfg.ClipNorm = 0.4    // rollbacks nearly every step
	cfg.Scaler = optim.NewLossScaler()
	cfg.InjectBad = func(step int) bool { return step%11 == 7 }
	tr := newEngine(tinyGPT(13), cfg)
	if tr.NumBuckets() < 20 {
		t.Fatalf("stress needs many buckets, got %d", tr.NumBuckets())
	}
	corpus := data.NewCorpus(64, 29)

	var checkpoint bytes.Buffer
	for i := 0; i < 60; i++ {
		switch i % 6 {
		case 0, 1, 2, 3:
			if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Fatal(err)
			}
		case 4:
			// Accumulation window with the previous verdict still
			// pending: it resolves after the window's first forward,
			// before any micro-batch stages its gradients.
			w := []data.Batch{corpus.NextBatch(1, 8), corpus.NextBatch(1, 8)}
			if _, err := tr.StepAccum(w); err != nil {
				t.Fatal(err)
			}
		case 5:
			// Save must be refused while the verdict is pending,
			// then succeed after Flush.
			if err := tr.Save(&checkpoint); err == nil {
				t.Fatal("Save with a verdict pending should be refused")
			}
			if _, err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			checkpoint.Reset()
			if err := tr.Save(&checkpoint); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flush with nothing pending is a no-op.
	if rolled, err := tr.Flush(); err != nil || rolled {
		t.Fatalf("idle Flush: rolled=%v err=%v", rolled, err)
	}

	// Load back the last checkpoint and keep training: the restored
	// state must accept new speculative steps and verdicts.
	if err := tr.Load(bytes.NewReader(checkpoint.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Rollbacks() == 0 {
		t.Error("stress run produced no rollbacks; the rollback path was idle")
	}
	if st.Commits+st.Rollbacks() != st.Steps {
		t.Errorf("stats don't add up: %+v", st)
	}
}

// TestTelemetryPollDuringTraining: Stats, StoreTelemetry,
// PlacementTelemetry and ActTelemetry are what a metrics endpoint reads
// from its own goroutine (the facade's RegisterMetrics, supertrain
// -obs-addr), so a poller hammering all four must be race-free against
// every way the trainer moves — Step, an accumulation window, Flush and
// Close — with the flash store, the placement executor and the activation
// tier all live and the clip tight enough that rollbacks happen.
// Meaningful under -race; the accumulation window used to bump the
// counters outside their lock.
func TestTelemetryPollDuringTraining(t *testing.T) {
	m := actGPT(42)
	cfg := nvmeTrainerConfig(t, stv.STV)
	cfg.ClipNorm = 0.4
	cfg.Scaler = optim.NewLossScaler()
	plan := place.GPUTail(len(stv.PartitionGroups(m.Params(), cfg.BucketElems)), 1)
	cfg.Placement = &plan
	ast, err := act.NewStore(act.Config{
		Tier: act.NVMe, Dir: t.TempDir(), ResidentLayers: 2,
		Hidden: 32, Params: int64(m.NumParams()),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Act = ast
	tr := newEngine(m, cfg)

	stop, polled := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				polled <- n
				return
			default:
			}
			tr.Stats()
			tr.StoreTelemetry()
			tr.PlacementTelemetry()
			tr.ActTelemetry()
			n++
		}
	}()

	corpus := data.NewCorpus(64, 29)
	for i := 0; i < 6; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
		w := []data.Batch{corpus.NextBatch(1, 8), corpus.NextBatch(1, 8)}
		if _, err := tr.StepAccum(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if n := <-polled; n == 0 {
		t.Error("the poller never ran")
	}
	if st := tr.Stats(); st.Steps != 12 || st.Rollbacks() == 0 || st.Redos == 0 {
		t.Errorf("run was not the mix of commits, rollbacks and redos the test is for: %+v", st)
	}
}
