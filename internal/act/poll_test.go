package act

import (
	"sync"
	"testing"
)

// TestTelemetryPollDuringClose hammers Telemetry from a poller
// goroutine while the store spills a pass and then Closes — the
// observability endpoint's access pattern. Run with -race: the test's
// assertion is the detector staying quiet, plus monotone counters.
func TestTelemetryPollDuringClose(t *testing.T) {
	s, err := NewStore(Config{
		Tier: NVMe, Dir: t.TempDir(), ResidentLayers: 2,
		Hidden: 8, Params: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Telemetry
		for {
			select {
			case <-stop:
				return
			default:
			}
			tel := s.Telemetry()
			if tel.Spills < last.Spills || tel.Fetches < last.Fetches {
				t.Errorf("telemetry went backwards: %+v after %+v", tel, last)
				return
			}
			last = tel
		}
	}()

	const layers = 8
	for pass := 0; pass < 20; pass++ {
		s.BeginPass(layers, 4, 4)
		for l := 0; l < layers; l++ {
			s.StashLayer(l, [][]float32{make([]float32, 16)})
		}
		for l := layers - 1; l >= 0; l-- {
			s.FetchLayer(l)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Post-Close polling must stay safe too (the HTTP server may outlive
	// the engine).
	if tel := s.Telemetry(); tel.Passes != 20 {
		t.Errorf("Passes = %d, want 20", tel.Passes)
	}
}
