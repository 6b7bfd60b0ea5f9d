package experiments

import (
	"fmt"
	"strings"

	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// ExtMlpSTV is the multi-level multi-path counterpart of ext-nvme-stv:
// the same real STV training run, but with the optimizer state striped
// across N NVMe paths (MLP-Offload's multi-path tier) with an optional
// DRAM cache tier in front. It reports three things: that every store
// variant — single-path, striped 2-path, and 2-path behind a DRAM cache
// — trains bit-identically to the DRAM-resident engine; the per-path
// flash occupancy of the striped run (read-aware steering keeps both
// lanes busy); and the modeled step time showing the 2-path stripe
// strictly beating the single lane in the balanced compute regime. The
// cache row shows the third level working: hits replace flash reads
// entirely.
func ExtMlpSTV() string {
	const (
		window = 2
		// The toy model partitions into 29 buckets; the bucket walk is
		// cyclic, so an LRU cache only hits once it covers the whole
		// non-resident span — smaller caches evict every entry right
		// before its next touch.
		cache = 32
	)
	cfg := model.Config{Name: "ext", Layers: 2, Hidden: 64, Heads: 4, Vocab: 128}
	// A 1 GB/s-effective reference core: Adam compute comparable to the
	// per-bucket transfer time, the regime where extra paths pay off.
	compute := func(elems int) float64 { return float64(elems) * 16 / 1e9 }

	mlpStore := func(paths, cacheBuckets int) *stv.MLPStore {
		s, err := stv.NewMLPStore(stv.MLPStoreConfig{
			Paths:           hw.NodeIOPaths(paths),
			ResidentBuckets: window,
			CacheBuckets:    cacheBuckets,
			ComputeTime:     compute,
		})
		if err != nil {
			panic(err)
		}
		return s
	}

	dramLosses, dramStats, _ := extRun(cfg, tiers{})

	one := mlpStore(1, 0)
	oneLosses, oneStats, _ := extRun(cfg, tiers{store: one})
	oneTel := one.Telemetry()

	two := mlpStore(2, 0)
	twoLosses, twoStats, _ := extRun(cfg, tiers{store: two})
	twoTel := two.Telemetry()

	cached := mlpStore(2, cache)
	cachedLosses, cachedStats, _ := extRun(cfg, tiers{store: cached})
	cachedTel := cached.Telemetry()

	exactStr := sameLosses(dramLosses, oneLosses, twoLosses, cachedLosses)

	var b strings.Builder
	fmt.Fprintf(&b, "Extension: multi-level multi-path (MLP) optimizer-state store on the real STV engine\n")
	fmt.Fprintf(&b, "model: %d params in ≤%d-elem buckets, resident window %d, stripe over hw.NodeIOPaths\n",
		nn.NewGPT(cfg, 16, tensor.NewRNG(21)).NumParams(), extBucketElems, window)
	fmt.Fprintf(&b, "DRAM vs {1-path, 2-path, 2-path+%d-bucket cache} losses over %d steps: %s (final %.4f, %d commits, %d rollbacks)\n",
		cache, extSteps, exactStr, dramLosses[len(dramLosses)-1], dramStats.Commits, dramStats.Rollbacks())
	if dramStats != oneStats || dramStats != twoStats || dramStats != cachedStats {
		fmt.Fprintf(&b, "WARNING: stats diverged across stores\n")
	}
	for _, e := range [][]stv.PathEvent{oneTel.Events, twoTel.Events, cachedTel.Events} {
		if len(e) > 0 {
			fmt.Fprintf(&b, "WARNING: degradation events on a healthy run: %+v\n", e)
		}
	}

	fmt.Fprintf(&b, "\nstore                     reads   writes   cache hits   pipelined ms/step   serialized ms/step\n")
	row := func(name string, t stv.MLPTelemetry) {
		fmt.Fprintf(&b, "  %-22s %6d %8d %12d %19.3f %20.3f\n",
			name, t.Reads, t.Writes, t.CacheHits,
			1e3*t.PipelinedSeconds()/extSteps, 1e3*t.SerializedSeconds()/extSteps)
	}
	row("1 path", oneTel)
	row("2 paths", twoTel)
	row(fmt.Sprintf("2 paths + cache(%d)", cache), cachedTel)

	speedup := oneTel.PipelinedSeconds() / twoTel.PipelinedSeconds()
	verdict := "MULTI-PATH WIN"
	if !(twoTel.PipelinedSeconds() < oneTel.PipelinedSeconds()) {
		verdict = "NO WIN (bug!)"
	}
	fmt.Fprintf(&b, "2-path stripe vs single lane: %.2fx pipelined speedup — %s\n", speedup, verdict)
	fmt.Fprintf(&b, "per-path occupancy (2-path run): ")
	for p := range twoTel.PathReadSeconds {
		if p > 0 {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "path %d r %.1f ms / w %.1f ms", p,
			1e3*twoTel.PathReadSeconds[p], 1e3*twoTel.PathWriteSeconds[p])
	}
	fmt.Fprintf(&b, "\ncache tier cut flash reads %d → %d (%d served from DRAM, zero stall)",
		twoTel.Reads, cachedTel.Reads, cachedTel.CacheHits)
	return b.String()
}
