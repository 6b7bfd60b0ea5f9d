package stv

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"superoffload/internal/hw"
	"superoffload/internal/stv/stvtest"
	"superoffload/internal/tensor"
)

// shutdownShapes are the store shapes the shutdown tests cover: the
// single-lane preset's (one path, no cache), two bare paths, and a wider
// striped store with the cache tier on.
var shutdownShapes = []struct{ paths, cache int }{{1, 0}, {2, 0}, {3, 2}}

func seededMLPStore(t *testing.T, paths, buckets, elems, window, cache int) *MLPStore {
	t.Helper()
	s, err := NewMLPStore(MLPStoreConfig{
		Dir:             t.TempDir(),
		Paths:           hw.NodeIOPaths(paths),
		ResidentBuckets: window,
		CacheBuckets:    cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	for i := 0; i < buckets; i++ {
		master := make([]float32, elems)
		for j := range master {
			master[j] = rng.NormFloat32()
		}
		s.Seed(i, master)
	}
	return s
}

// TestMLPStoreCloseWithOpsInFlight closes the store right after Acquires
// have launched async prefetches and write-behind flushes across every
// path, so all the path workers are mid-drain while Close runs. Run
// under -race in CI: Close must wait out every in-flight op (the seeded
// bootstrap writes, the fetches, the write-behind flushes) on every path
// without racing the workers, delete every backing file, and leave no
// goroutine behind.
func TestMLPStoreCloseWithOpsInFlight(t *testing.T) {
	for _, sh := range shutdownShapes {
		t.Run(fmt.Sprintf("paths=%d", sh.paths), func(t *testing.T) {
			for i := 0; i < 20; i++ {
				before := runtime.NumGoroutine()
				s := seededMLPStore(t, sh.paths, 9, 512, 2, sh.cache)
				var paths []string
				for _, l := range s.lanes {
					paths = append(paths, l.Path())
				}
				if len(paths) != sh.paths {
					t.Fatalf("expected %d backing files, got %v", sh.paths, paths)
				}
				// Acquire → prefetch of the next bucket is in flight; the
				// mutating release queues a write-behind on the next eviction.
				st := s.Acquire(0)
				st.Shard.Master[0]++
				s.Release(0, ReleaseFlush)
				// Touch more buckets so evictions (and their striped flushes)
				// are queued alongside the still-warm prefetch pipeline.
				s.Acquire(1)
				s.Release(1, ReleaseStep)
				s.Acquire(2)
				s.Release(2, ReleaseFlush)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				for _, p := range paths {
					if _, err := os.Stat(p); !os.IsNotExist(err) {
						t.Fatalf("backing file %s survived Close (err=%v)", p, err)
					}
				}
				stvtest.NoLeakedGoroutines(t, before)
				// Close is idempotent.
				if err := s.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
			}
		})
	}
}

// TestMLPStoreAcquireAfterClose: the store is unusable after Close, and
// says so — an Acquire must panic with a clear message instead of the
// opaque send-on-closed-channel a path's op queue would produce.
func TestMLPStoreAcquireAfterClose(t *testing.T) {
	for _, paths := range []int{1, 2} {
		t.Run(fmt.Sprintf("paths=%d", paths), func(t *testing.T) {
			s := seededMLPStore(t, paths, 3, 256, 2, 0)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("Acquire after Close did not panic")
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "after Close") {
					t.Fatalf("Acquire after Close panicked with %v, want a clear after-Close message", r)
				}
			}()
			s.Acquire(0)
		})
	}
}

// TestMLPStoreWorkerStress churns a tight window over many buckets —
// the -race harness for the consumer/worker handoff on the lanes' op
// queues, at one path, two, and four with the cache tier on. Telemetry
// is read concurrently with the churn, as an engine's stats poller would.
func TestMLPStoreWorkerStress(t *testing.T) {
	const buckets = 16
	for _, sh := range []struct{ paths, window, cache int }{{1, 2, 0}, {2, 2, 0}, {4, 3, 2}} {
		t.Run(fmt.Sprintf("paths=%d", sh.paths), func(t *testing.T) {
			s := seededMLPStore(t, sh.paths, buckets, 384, sh.window, sh.cache)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 200; i++ {
					s.Telemetry()
					s.Err()
				}
			}()
			for pass := 0; pass < 6; pass++ {
				for i := 0; i < buckets; i++ {
					st := s.Acquire(i)
					st.Shard.Master[pass%len(st.Shard.Master)]++
					mode := ReleaseStep
					if (pass+i)%3 == 0 {
						mode = ReleaseFlush
					}
					s.Release(i, mode)
				}
			}
			<-done
			tel := s.Telemetry()
			if tel.Reads == 0 || tel.Writes == 0 {
				t.Fatalf("stress run never touched flash: %+v", tel.StoreTelemetry)
			}
			for i, sec := range tel.PathWriteSeconds {
				if sec <= 0 {
					t.Errorf("path %d never wrote: %v", i, tel.PathWriteSeconds)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
