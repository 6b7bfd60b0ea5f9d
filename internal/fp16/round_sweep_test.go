//go:build !race

package fp16

import (
	"flag"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The sweep keeps every core busy for about half a minute, so, like the
// GELU sweep in internal/nn, it runs only when asked for and as its own CI
// step; race builds leave it out.
var sweep = flag.Bool("sweep", false, "run the exhaustive 2³² Round sweep")

// TestRoundExhaustiveSweep checks each Round path — the Go loop, and the
// F16C leaf where the CPU has it — against Uncast(Cast(x)) on all 2³²
// float32 inputs, split across GOMAXPROCS workers. Run it with
// `go test ./internal/fp16 -run Sweep -sweep -v`.
func TestRoundExhaustiveSweep(t *testing.T) {
	if !*sweep {
		t.Skip("exhaustive 2³² sweep runs only with -sweep")
	}
	start := time.Now()
	paths := roundPaths()
	workers := runtime.GOMAXPROCS(0)
	const total, chunk = uint64(1) << 32, 1 << 12
	bad := make([][]uint64, workers) // per worker, per path
	var wg sync.WaitGroup
	for w := range workers {
		bad[w] = make([]uint64, len(paths))
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, got := make([]float32, chunk), make([]float32, chunk)
			half, want := make([]Num, chunk), make([]float32, chunk)
			// Chunks are dealt round-robin; 2³² is a whole number of them.
			for c := uint64(w) * chunk; c < total; c += uint64(workers) * chunk {
				for i := range src {
					src[i] = math.Float32frombits(uint32(c) + uint32(i))
				}
				Uncast(want, Cast(half, src))
				for p, path := range paths {
					path.round(got, src)
					for i := range src {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							if bad[w][p]++; bad[w][p] == 1 {
								t.Errorf("%s: first differing input in worker %d: %#08x", path.name, w, math.Float32bits(src[i]))
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for p, path := range paths {
		var n uint64
		for w := range bad {
			n += bad[w][p]
		}
		t.Logf("%s: %d of 2³² float32 inputs differ from Uncast(Cast(x))", path.name, n)
	}
	t.Logf("%d paths in %v on %d workers", len(paths), time.Since(start).Round(time.Second), workers)
}
