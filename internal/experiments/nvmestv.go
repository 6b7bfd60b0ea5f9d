package experiments

import (
	"fmt"
	"strings"

	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// ExtNVMeSTV is the real-engine counterpart of the ext-nvme extension:
// instead of modeling ZeRO-Infinity's flash tier analytically, it trains
// an actual GPT with the STV engine's optimizer state behind the
// file-backed NVMe store (2-bucket resident window, async double-buffered
// prefetch, write-behind flush) and reports three things: that the loss
// trajectory is bit-identical to the DRAM-resident run, the per-step
// flash traffic, and the modeled step time of the overlapped pipeline
// against a serialized fetch+step+flush schedule. Two compute models
// bracket the overlap: the GH200 Grace kernel (so fast the NVMe array is
// the bottleneck) and a 1 GB/s reference core (balanced, where
// prefetching shines).
func ExtNVMeSTV() string {
	const window = 2
	cfg := model.Config{Name: "ext", Layers: 2, Hidden: 64, Heads: 4, Vocab: 128}

	nvmeStore := func(compute func(int) float64) *stv.NVMeStore {
		s, err := stv.NewNVMeStore(stv.NVMeStoreConfig{
			ResidentBuckets: window,
			ComputeTime:     compute,
		})
		if err != nil {
			panic(err)
		}
		return s
	}

	dramLosses, dramStats, _ := extRun(cfg, tiers{})

	grace := nvmeStore(nil) // default: the GH200 Grace Adam model
	graceLosses, nvmeStats, _ := extRun(cfg, tiers{store: grace})
	graceTel := grace.Telemetry()

	// A 1 GB/s-effective reference core: Adam compute comparable to the
	// per-bucket transfer time, the regime prefetching is built for.
	ref := nvmeStore(func(elems int) float64 { return float64(elems) * 16 / 1e9 })
	refLosses, _, _ := extRun(cfg, tiers{store: ref})
	refTel := ref.Telemetry()

	exactStr := sameLosses(dramLosses, graceLosses, refLosses)

	var b strings.Builder
	fmt.Fprintf(&b, "Extension: NVMe-tier optimizer-state store on the real STV engine\n")
	fmt.Fprintf(&b, "model: %d params in ≤%d-elem buckets, resident window %d (double-buffered)\n",
		nn.NewGPT(cfg, 16, tensor.NewRNG(21)).NumParams(), extBucketElems, window)
	fmt.Fprintf(&b, "DRAM vs NVMe loss trajectory over %d steps: %s (final loss %.4f, %d commits, %d rollbacks)\n",
		extSteps, exactStr, dramLosses[len(dramLosses)-1], dramStats.Commits, dramStats.Rollbacks())
	if dramStats != nvmeStats {
		fmt.Fprintf(&b, "WARNING: stats diverged across stores: %+v vs %+v\n", dramStats, nvmeStats)
	}
	fmt.Fprintf(&b, "flash traffic: %d reads (%.1f MB), %d writes (%.1f MB)\n",
		graceTel.Reads, float64(graceTel.BytesRead)/1e6,
		graceTel.Writes, float64(graceTel.BytesWritten)/1e6)
	row := func(name string, t stv.StoreTelemetry) {
		pipe, serial := t.PipelinedSeconds(), t.SerializedSeconds()
		fmt.Fprintf(&b, "  %-22s %8.3f ms %12.3f ms %9.0f%%\n",
			name, 1e3*pipe/extSteps, 1e3*serial/extSteps, 100*(1-pipe/serial))
	}
	fmt.Fprintf(&b, "modeled step time          pipelined    serialized     hidden\n")
	row("Grace CPU (device-bound)", graceTel)
	row("1 GB/s reference core", refTel)
	fmt.Fprintf(&b, "pipelined = compute + stalls; serialized = fetch + step + flush with no overlap")
	return b.String()
}
