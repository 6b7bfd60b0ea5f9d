//go:build !race

package nn

import (
	"flag"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The sweep keeps every core busy for about a minute. Beside it in a plain
// `go test ./...`, TestTable3RatiosModelAndMeasured (a wall-clock ordering
// of the Adam kernels in internal/experiments) failed 8 of 40 runs against
// 2 of 30 alone on a 2-vCPU host, so it runs only when asked for, as its
// own CI step. Race builds leave it out: there it would take hours.
var sweep = flag.Bool("sweep", false, "run the exhaustive 2³² GELU sweep")

// TestGeluExhaustiveSweep checks geluForward against the two-function
// reference on all 2³² float32 inputs, split across GOMAXPROCS workers.
// Run it with `go test ./internal/nn -run Sweep -sweep -v`.
func TestGeluExhaustiveSweep(t *testing.T) {
	requireAMD64(t)
	if !*sweep {
		t.Skip("exhaustive 2³² sweep runs only with -sweep")
	}
	start := time.Now()
	workers := runtime.GOMAXPROCS(0)
	const total = uint64(1) << 32
	bad := make([]uint64, workers)
	first := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, at := uint64(0), total
			for b := total * uint64(w) / uint64(workers); b < total*uint64(w+1)/uint64(workers); b++ {
				x := float64(math.Float32frombits(uint32(b)))
				y, g := geluForward(x)
				if sameBits(float32(y), float32(geluScalar(x))) && sameBits(float32(g), float32(geluGradScalar(x))) {
					continue
				}
				if n++; at == total {
					at = b
				}
			}
			bad[w], first[w] = n, at
		}()
	}
	wg.Wait()
	var n uint64
	for w := range workers {
		n += bad[w]
		if first[w] != total {
			t.Errorf("first differing input in worker %d's range: %#08x", w, first[w])
		}
	}
	t.Logf("%d of 2³² float32 inputs differ from the two-function GELU (%v on %d workers)",
		n, time.Since(start).Round(time.Second), workers)
	if n > 0 {
		t.Errorf("%d inputs differ", n)
	}
}
