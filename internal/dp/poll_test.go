package dp

import (
	"sync"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/place"
	"superoffload/internal/stv"
)

// TestTelemetryPollDuringTrainingAndClose hammers the engine's
// poll-facing surfaces — Stats, PlacementTelemetry, StoreTelemetry —
// from a poller goroutine while ranks train and then through Close,
// mirroring a live /metrics endpoint. Run with -race: the assertion is
// the detector staying quiet plus monotone step counts.
func TestTelemetryPollDuringTrainingAndClose(t *testing.T) {
	cfg := shapeConfig(2, 1, 1)
	cfg.BucketElems = 4096
	nb := len(stv.PartitionGroups(tinyGPT(42).Params(), cfg.BucketElems))
	plan := place.GPUTail(nb, 2)
	cfg.Placement = &plan
	e, err := New(tinyGPT(42), cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastSteps int
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.Stats()
			if st.Steps < lastSteps {
				t.Errorf("Stats.Steps went backwards: %d after %d", st.Steps, lastSteps)
				return
			}
			lastSteps = st.Steps
			e.PlacementTelemetry()
			e.StoreTelemetry()
			e.ActTelemetry()
		}
	}()

	corpus := data.NewCorpus(64, 55)
	for i := 0; i < 10; i++ {
		if _, err := e.Step(corpus.NextBatch(4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if st := e.Stats(); st.Steps != 10 {
		t.Errorf("Steps = %d, want 10", st.Steps)
	}
}
