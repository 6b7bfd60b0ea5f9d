// Cross-hardware: the paper's central thesis is that PCIe-era offloading
// decisions invert on Superchips. This example runs the planner's two key
// decisions — casting placement (§4.5) and weight-flow viability (§4.2) —
// across the three node generations of Table 1 and shows exactly where
// each flips.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"superoffload/internal/core"
	"superoffload/internal/hw"
	"superoffload/internal/model"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the three decisions for every node generation to w, and
// fails if the partitions break the closing claim: the two partitioners
// agree on a PCIe node, and on the Superchip the aware one puts both
// casts on the GPU.
func run(w io.Writer) error {
	bucket := int64(32 << 20) // one 64 MB fp16 bucket
	m := model.Nearest(7e9)

	fmt.Fprintln(w, "Decision 1 — casting placement for one gradient bucket (§4.5):")
	for _, chip := range hw.Registry() {
		path := core.ChooseCastPath(chip, bucket)
		fp32 := core.CastCost(chip, core.CastGPUMoveFP32, bucket)
		fp16c := core.CastCost(chip, core.CastCPUMoveFP16, bucket)
		fmt.Fprintf(w, "  %-9s link %-9s -> %-20s (fp32 path %6.2f ms, fp16 path %6.2f ms)\n",
			chip.Name, chip.Link.Name, path, fp32*1e3, fp16c*1e3)
	}

	fmt.Fprintln(w, "\nDecision 2 — can weight-flow hide weight streaming at batch 4, seq 1024 (Eq. 1-3)?")
	for _, chip := range hw.Registry() {
		eff := core.Efficiency(4, 1024, m.Params(),
			chip.GPU.PeakFLOPS*hw.GEMMEfficiencyMax, chip.Link.PeakBW)
		verdict := "no  (stay weight-stationary)"
		if eff >= core.MinEfficiencyForFlow {
			verdict = "yes (weight-flow viable)"
		}
		fmt.Fprintf(w, "  %-9s efficiency %5.1f%% -> %s\n", chip.Name, 100*eff, verdict)
	}

	fmt.Fprintln(w, "\nDecision 3 — SA-DFG partition of the optimizer subgraph (§4.1):")
	for _, chip := range hw.Registry() {
		g := core.MixedPrecisionStepGraph(chip, bucket)
		aware := g.SuperchipAware()
		greedy := g.GreedyEdgeCut()
		fmt.Fprintf(w, "  %-9s greedy edge-cut: casts on %v/%v   superchip-aware: casts on %v/%v\n",
			chip.Name, greedy[1], greedy[3], aware[1], aware[3])
		pcie := strings.HasPrefix(chip.Link.Name, "PCIe")
		if pcie && (aware[1] != greedy[1] || aware[3] != greedy[3]) ||
			!pcie && (aware[1] != core.GPU || aware[3] != core.GPU) {
			return fmt.Errorf("%s: the partitions do not follow the link", chip.Name)
		}
	}
	fmt.Fprintln(w, "\nOn PCIe nodes the two partitioners agree (minimize volume); on the")
	fmt.Fprintln(w, "GH200 the superchip-aware partition moves both casts to the GPU and")
	fmt.Fprintln(w, "ships fp32 — the paper's Superchip-aware casting.")
	return nil
}
