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

// TestGeluExhaustiveSweep checks each gelu path — the Go loop, and the
// AVX2+FMA leaf where the CPU has it — against the two-function reference
// on all 2³² float32 inputs, split across GOMAXPROCS workers. The Go loop's
// body (geluForward, rounded to float32) runs beside the reference in one
// loop, which takes half the time of a separate geluGo pass over each
// chunk. Run it with `go test ./internal/nn -run Sweep -sweep -v`.
func TestGeluExhaustiveSweep(t *testing.T) {
	requireAMD64(t)
	if !*sweep {
		t.Skip("exhaustive 2³² sweep runs only with -sweep")
	}
	start := time.Now()
	names := []string{"Go loop"}
	leaf := leafGelu()
	if leaf != nil {
		names = append(names, "AVX2+FMA leaf")
	}
	workers := runtime.GOMAXPROCS(0)
	const total, chunk = uint64(1) << 32, 1 << 12
	bad := make([][]uint64, workers) // per worker, per path
	var wg sync.WaitGroup
	for w := range workers {
		bad[w] = make([]uint64, len(names))
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, y, g := make([]float32, chunk), make([]float32, chunk), make([]float32, chunk)
			wantY, wantG := make([]float32, chunk), make([]float32, chunk)
			check := func(p, i int, y, g float32) {
				if sameBits(y, wantY[i]) && sameBits(g, wantG[i]) {
					return
				}
				if bad[w][p]++; bad[w][p] == 1 {
					t.Errorf("%s: first differing input in worker %d: %#08x", names[p], w, math.Float32bits(x[i]))
				}
			}
			// Chunks are dealt round-robin; 2³² is a whole number of them.
			for c := uint64(w) * chunk; c < total; c += uint64(workers) * chunk {
				for i := range x {
					x[i] = math.Float32frombits(uint32(c) + uint32(i))
					v := float64(x[i])
					wantY[i], wantG[i] = float32(geluScalar(v)), float32(geluGradScalar(v))
					gy, gg := geluForward(v)
					check(0, i, float32(gy), float32(gg))
				}
				if leaf != nil {
					leaf(y, g, x)
					for i := range x {
						check(1, i, y[i], g[i])
					}
				}
			}
		}()
	}
	wg.Wait()
	for p, name := range names {
		var n uint64
		for w := range bad {
			n += bad[w][p]
		}
		t.Logf("%s: %d of 2³² float32 inputs differ from the two-function GELU", name, n)
	}
	t.Logf("%d paths in %v on %d workers", len(names), time.Since(start).Round(time.Second), workers)
}
