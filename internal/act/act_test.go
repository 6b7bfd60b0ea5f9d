package act

import (
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"superoffload/internal/iolane"
	"superoffload/internal/stv/stvtest"
)

// fillLayer builds deterministic per-layer buffers (two slices per
// layer, values encoding layer/buffer/index so corruption is traceable).
func fillLayer(l int) [][]float32 {
	bufs := [][]float32{make([]float32, 96), make([]float32, 33)}
	for bi, b := range bufs {
		for i := range b {
			b[i] = float32(l*1000+bi*100) + float32(i)*0.25
		}
	}
	return bufs
}

func runPass(t *testing.T, s *Store, layers int) [][][]float32 {
	t.Helper()
	s.BeginPass(layers, 64, 16)
	bufs := make([][][]float32, layers)
	want := make([][][]float32, layers)
	for l := 0; l < layers; l++ {
		bufs[l] = fillLayer(l)
		want[l] = fillLayer(l)
		s.StashLayer(l, bufs[l])
	}
	// Spilled layers must be poisoned, resident ones untouched.
	spilled := layers - s.Resident()
	for l := 0; l < layers; l++ {
		v := bufs[l][0][0]
		if l < spilled && !math.IsNaN(float64(v)) {
			t.Fatalf("layer %d: spilled buffer not poisoned (got %v)", l, v)
		}
		if l >= spilled && math.IsNaN(float64(v)) {
			t.Fatalf("layer %d: resident buffer poisoned", l)
		}
	}
	// Backward: every layer restored bit-exactly.
	for l := layers - 1; l >= 0; l-- {
		s.FetchLayer(l)
		for bi, b := range bufs[l] {
			for i, v := range b {
				if got, w := math.Float32bits(v), math.Float32bits(want[l][bi][i]); got != w {
					t.Fatalf("layer %d buf %d[%d]: got bits %#x want %#x", l, bi, i, got, w)
				}
			}
		}
	}
	return bufs
}

func TestStoreRoundTrip(t *testing.T) {
	for _, tier := range []Tier{DRAM, NVMe} {
		t.Run(tier.String(), func(t *testing.T) {
			s, err := NewStore(Config{Tier: tier, Dir: t.TempDir(), ResidentLayers: 2, Hidden: 32, Params: 1000})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Two passes: the second reuses backing records.
			runPass(t, s, 6)
			runPass(t, s, 6)
			tel := s.Telemetry()
			if tel.Passes != 2 || tel.Spills != 8 || tel.Fetches != 8 {
				t.Fatalf("telemetry passes/spills/fetches = %d/%d/%d, want 2/8/8", tel.Passes, tel.Spills, tel.Fetches)
			}
			if tel.BytesSpilled != tel.BytesFetched || tel.BytesSpilled == 0 {
				t.Fatalf("bytes spilled %d != fetched %d", tel.BytesSpilled, tel.BytesFetched)
			}
			if tel.PipelinedSeconds() >= tel.SerializedSeconds() {
				t.Fatalf("pipelined %g not strictly under serialized %g", tel.PipelinedSeconds(), tel.SerializedSeconds())
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreAbandonedPass: an STV redo abandons a half-finished pass by
// beginning the next one. The new pass must round-trip cleanly even
// though the abandoned pass's write ops may still be in flight against
// the same backing records.
func TestStoreAbandonedPass(t *testing.T) {
	s, err := NewStore(Config{Tier: NVMe, Dir: t.TempDir(), Hidden: 32, Params: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.BeginPass(6, 64, 16)
	for l := 0; l < 6; l++ {
		s.StashLayer(l, fillLayer(l))
	}
	// Abandon mid-backward: one fetch consumed, prefetches in flight.
	s.FetchLayer(5)
	runPass(t, s, 6)
}

// TestStoreCloseWithPrefetchInFlight closes the store right after the
// first backward fetch auto-launched the double-buffered prefetches, so
// the IO worker is mid-drain while Close runs. Run under -race in CI:
// Close must wait out every queued op without racing the worker and
// still delete the backing file.
func TestStoreCloseWithPrefetchInFlight(t *testing.T) {
	for i := 0; i < 20; i++ {
		before := runtime.NumGoroutine()
		s, err := NewStore(Config{Tier: NVMe, Dir: t.TempDir(), Hidden: 32, Params: 1000})
		if err != nil {
			t.Fatal(err)
		}
		path := s.Path()
		s.BeginPass(8, 64, 16)
		for l := 0; l < 8; l++ {
			s.StashLayer(l, fillLayer(l))
		}
		// First fetch launches two prefetch reads behind it.
		s.FetchLayer(7)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("backing file %s survived Close (err=%v)", path, err)
		}
		stvtest.NoLeakedGoroutines(t, before)
		// Close is idempotent.
		if err := s.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

// TestStoreBackingIOFailure injects a failing spill write, then a
// failing fetch read, into the NVMe tier's lane. Nothing waits on a
// spill, so its failure latches; either way the pass must stop at a
// store call with the attributable message instead of restoring bytes
// the file never held, nothing may hang, and Close must report the
// error and leave no goroutine behind.
func TestStoreBackingIOFailure(t *testing.T) {
	// An 8-layer pass at window 2 issues 6 spill writes (ops 0-5), then
	// the fetches of layers 5 and 4. Each fetch waits only for its own
	// layer's spill, so the lane may run layer 4's ahead of layer 5's
	// spill: op 6 is either kind, and op 7 is always a fetch read.
	for _, c := range []struct {
		name     string
		afterOps int
	}{{"spill-write", 0}, {"fetch-read", 7}} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			inj := stvtest.NewInjector(stvtest.Fault{Kind: stvtest.FaultError, AfterOps: c.afterOps})
			s, err := newStore(Config{Tier: NVMe, Dir: t.TempDir(), Hidden: 32, Params: 1000},
				func(f iolane.File) iolane.File { return inj.WrapPath(0, f) })
			if err != nil {
				t.Fatal(err)
			}
			var msg string
			func() {
				defer func() { msg, _ = recover().(string) }()
				runPass(t, s, 8)
			}()
			if !strings.Contains(msg, "act: backing IO failed: stvtest: injected") {
				t.Fatalf("pass over a failing lane ended with %q, want the backing-IO panic", msg)
			}
			if err := s.Close(); err == nil || !strings.Contains(err.Error(), "stvtest: injected") {
				t.Fatalf("Close = %v, want the injected IO error", err)
			}
			stvtest.NoLeakedGoroutines(t, before)
		})
	}
}

// TestStoreFetchAfterClose: the store is unusable after Close, and says
// so — a fetch must panic with a clear message instead of the opaque
// send-on-closed-channel the op queue would otherwise produce.
func TestStoreFetchAfterClose(t *testing.T) {
	s, err := NewStore(Config{Tier: DRAM, Hidden: 32, Params: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s.BeginPass(4, 64, 16)
	for l := 0; l < 4; l++ {
		s.StashLayer(l, fillLayer(l))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("FetchLayer after Close did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "after Close") {
			t.Fatalf("FetchLayer after Close panicked with %v, want a clear after-Close message", r)
		}
	}()
	s.FetchLayer(3)
}

// TestStoreResidentFloor: windows below 2 are raised to the floor, and
// a model no deeper than the window never spills.
func TestStoreResidentFloor(t *testing.T) {
	s, err := NewStore(Config{Tier: DRAM, ResidentLayers: 1, Hidden: 32, Params: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Resident() != 2 {
		t.Fatalf("Resident() = %d, want floor 2", s.Resident())
	}
	runPass(t, s, 2)
	if tel := s.Telemetry(); tel.Spills != 0 {
		t.Fatalf("shallow model spilled %d layers", tel.Spills)
	}
}
