package experiments

import (
	"fmt"
	"strings"

	"superoffload/internal/act"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/tensor"
)

// ExtActSTV is the activation-tier counterpart of ext-nvme-stv: instead
// of spilling optimizer state, it trains an actual GPT with each layer's
// forward activations spilled behind a 2-layer write-behind window —
// once into the DRAM cache tier over the C2C link, once into a
// file-backed NVMe tier — and prefetched back ahead of the backward pass
// with async double buffering. It reports three things: that both
// spilling runs are bit-identical to the fully resident run (restores
// copy back the exact float32 bits, so offloading is numerically
// invisible), the per-tier spill/fetch traffic, and the modeled step
// time of the overlapped prefetch pipeline against a serialized
// spill+compute+fetch schedule on the same virtual clocks.
func ExtActSTV() string {
	const window = 2
	cfg := model.Config{Name: "ext", Layers: 5, Hidden: 64, Heads: 4, Vocab: 128}

	actStore := func(tier act.Tier) *act.Store {
		s, err := act.NewStore(act.Config{
			Tier: tier, ResidentLayers: window,
			Hidden: cfg.Hidden,
			Params: int64(nn.NewGPT(cfg, 16, tensor.NewRNG(21)).NumParams()),
		})
		if err != nil {
			panic(err)
		}
		return s
	}

	residentLosses, residentStats, _ := extRun(cfg, tiers{})

	dram := actStore(act.DRAM)
	dramLosses, dramStats, _ := extRun(cfg, tiers{act: dram})
	dramTel := dram.Telemetry()

	nvme := actStore(act.NVMe)
	nvmeLosses, nvmeStats, _ := extRun(cfg, tiers{act: nvme})
	nvmeTel := nvme.Telemetry()

	exactStr := sameLosses(residentLosses, dramLosses, nvmeLosses)

	var b strings.Builder
	fmt.Fprintf(&b, "Extension: SSDTrain-style activation offloading tier on the real STV engine\n")
	fmt.Fprintf(&b, "model: %d layers, %d params; write-behind window %d, depth-2 async prefetch\n",
		cfg.Layers, nn.NewGPT(cfg, 16, tensor.NewRNG(21)).NumParams(), window)
	fmt.Fprintf(&b, "resident vs dram vs nvme loss trajectory over %d steps: %s (final loss %.4f, %d commits, %d rollbacks)\n",
		extSteps, exactStr, residentLosses[len(residentLosses)-1], residentStats.Commits, residentStats.Rollbacks())
	if residentStats != dramStats || residentStats != nvmeStats {
		fmt.Fprintf(&b, "WARNING: stats diverged across tiers: %+v vs %+v vs %+v\n", residentStats, dramStats, nvmeStats)
	}
	fmt.Fprintf(&b, "per-pass traffic: %d spills (%.2f MB), %d fetches (%.2f MB) across %d passes\n",
		dramTel.Spills, float64(dramTel.BytesSpilled)/1e6,
		dramTel.Fetches, float64(dramTel.BytesFetched)/1e6, dramTel.Passes)
	row := func(name string, t act.Telemetry) {
		pipe, serial := t.PipelinedSeconds(), t.SerializedSeconds()
		fmt.Fprintf(&b, "  %-22s %8.3f ms %12.3f ms %9.0f%%\n",
			name, 1e3*pipe/extSteps, 1e3*serial/extSteps, 100*(1-pipe/serial))
	}
	fmt.Fprintf(&b, "modeled step time          pipelined    serialized     hidden\n")
	row("DRAM cache (C2C)", dramTel)
	row("NVMe backing file", nvmeTel)
	fmt.Fprintf(&b, "pipelined = compute + unhidden prefetch stalls; serialized = every spill and fetch end to end")
	return b.String()
}
