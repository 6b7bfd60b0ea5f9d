package dp

import (
	"errors"
	"runtime"
	"testing"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/stv"
	"superoffload/internal/stv/stvtest"
)

// nvmeFactory gives every rank its own file-backed store with a 2-bucket
// window in the test's temp dir.
func nvmeFactory(t *testing.T) func(rank int) (stv.BucketStore, error) {
	t.Helper()
	dir := t.TempDir()
	return func(rank int) (stv.BucketStore, error) {
		return stv.NewNVMeStore(stv.NVMeStoreConfig{Dir: dir, ResidentBuckets: 2})
	}
}

// closeable is the lifecycle surface the idempotency tests drive.
type closeable interface {
	Close() error
}

// buildEngines constructs four engine shapes and the single-rank
// trainer over NVMe-backed stores (the backend with real resources to
// double-release) and steps each one WITHOUT flushing, so a speculative
// step's verdict is still pending when Close arrives. Run under -race,
// this covers the close-while-pending path: closeWorld must resolve the
// verdict on every rank before it stops the rank goroutines and closes
// their stores.
func buildEngines(t *testing.T) map[string]closeable {
	t.Helper()
	engines := map[string]closeable{}
	corpus := data.NewCorpus(64, 11)

	for name, sh := range map[string]shape{"init": s111, "dp": s211, "sp": s121, "mesh": s221, "pipe": s212} {
		cfg := shapeConfig(sh.R, sh.S, sh.P)
		cfg.NewStore = nvmeFactory(t)
		e, err := New(deepGPT(3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatalf("%s: step: %v", name, err)
		}
		engines[name] = e
	}
	return engines
}

// TestCloseIdempotent: Close on every engine — with a verdict still
// pending from an unflushed step — must succeed, and a second Close
// must be a harmless no-op (nil error, no panic, no double-release of
// the NVMe stores' worker channels and files).
func TestCloseIdempotent(t *testing.T) {
	for name, eng := range buildEngines(t) {
		if err := eng.Close(); err != nil {
			t.Errorf("%s: first Close: %v", name, err)
		}
		if err := eng.Close(); err != nil {
			t.Errorf("%s: second Close: %v", name, err)
		}
		// And a third, for luck: closed must be absorbing.
		if err := eng.Close(); err != nil {
			t.Errorf("%s: third Close: %v", name, err)
		}
	}
}

// TestCloseRejectsFurtherUse: after Close, the multi-rank engines'
// step/flush/save surfaces must return errors, never deadlock against
// the stopped rank goroutines.
func TestCloseRejectsFurtherUse(t *testing.T) {
	cfg := shapeConfig(1, 1, 1)
	cfg.Ranks, cfg.SeqRanks, cfg.PipeRanks = 2, 1, 2
	eng, err := New(deepGPT(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(64, 11)
	if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(corpus.NextBatch(2, 8)); err == nil {
		t.Error("Step on a closed engine succeeded")
	}
	if _, err := eng.Flush(); err == nil {
		t.Error("Flush on a closed engine succeeded")
	}
}

// closeCounter is a DRAM bucket store that counts its Close calls.
type closeCounter struct {
	*stv.DRAMStore
	closed *int
}

func (c closeCounter) Close() error { *c.closed++; return nil }

// TestFailedStoreFactoryUnwinds: when a rank's bucket-store or
// activation-store factory fails, New returns an error naming the rank
// and what it was building, and every store already built is closed.
func TestFailedStoreFactoryUnwinds(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name, want string
		actFails   bool // the activation factory fails, not the bucket one
		closed     int  // bucket stores New must close
	}{
		{"bucket store", "dp: building rank 1 store: boom", false, 1},
		{"activation store", "dp: building rank 1 activation store: boom", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, closed := runtime.NumGoroutine(), 0
			cfg := shapeConfig(2, 1, 1)
			cfg.NewStore = func(rank int) (stv.BucketStore, error) {
				if rank == 1 && !tc.actFails {
					return nil, boom
				}
				return closeCounter{stv.NewDRAMStore(), &closed}, nil
			}
			cfg.NewActStore = func(rank int) (*act.Store, error) {
				if rank == 1 {
					return nil, boom
				}
				return act.NewStore(act.Config{})
			}
			_, err := New(tinyGPT(3), cfg)
			if err == nil || err.Error() != tc.want || !errors.Is(err, boom) {
				t.Fatalf("New error = %v, want %q wrapping the factory's", err, tc.want)
			}
			if closed != tc.closed {
				t.Errorf("%d bucket stores closed, want %d", closed, tc.closed)
			}
			stvtest.NoLeakedGoroutines(t, before)
		})
	}
}
