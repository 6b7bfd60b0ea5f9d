package experiments

import (
	"fmt"
	"strings"

	"superoffload/internal/model"
)

// ExtPipeSTV exercises the full 3-D R×S×P engine: R data-parallel
// replica groups × S-way Ulysses sequence parallelism per cell × P
// pipeline stages per column under the 1F1B schedule, with ZeRO-sharded
// offloaded optimization spanning all R·S·P ranks. For each shape it
// trains a real GPT over M micro-batches per step (so the stages
// genuinely interleave) and checks the exactness contract: the loss
// trajectory (rollbacks included) is bit-identical to the (1,1,1)
// engine consuming the same R-way row decomposition via gradient
// accumulation — the sequence AND pipeline axes must be invisible —
// checkpoints are byte-identical to the reference's, and the NVMe tier
// composes without disturbing a bit.
func ExtPipeSTV() string {
	x := shapeRuns{
		cfg:   model.Config{Name: "ext", Layers: 4, Hidden: 64, Heads: 4, Vocab: 128},
		steps: 25, batch: 4,
		micros: 2, // micro-batches per step: M ≥ 2 makes 1F1B overlap real
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Extension: 3-D R×S×P engine (data × sequence × 1F1B pipeline parallelism) over the STV engine\n")
	fmt.Fprintf(&b, "model: %d layers, %d heads, batch %d × %d micros, seq %d, ≤%d-elem buckets; ClipNorm 3.0 forces a commit/rollback mix\n",
		x.cfg.Layers, x.cfg.Heads, x.batch, x.micros, shapeSeq, shapeBucketElems)
	for _, r := range []int{1, 2} {
		ref := x.reference(r)
		fmt.Fprintf(&b, "single-rank reference (R=%d-way row accumulation) over %d steps: final loss %.4f, %d commits, %d rollbacks\n",
			r, x.steps, ref.losses[x.steps-1], ref.stats.Commits, ref.stats.Rollbacks())
	}

	fmt.Fprintf(&b, "\n%-24s %-14s %-10s %18s %16s %10s\n",
		"configuration", "trajectory", "rollbacks", "stage sends/step", "a2a floats/step", "ckpt=ref")
	row := func(format string, r, s, p int, nvme bool) {
		t, cs := x.run(r, s, p, nvme)
		exact, same := x.exactVs(r, t)
		fmt.Fprintf(&b, "%-24s %-14s %-10d %18d %16d %10s\n",
			fmt.Sprintf(format, r, s, p), exact, t.stats.Rollbacks(),
			cs.StageSends/int64(x.steps), cs.A2AFloats/int64(x.steps), same)
	}
	for _, shape := range [][3]int{{1, 1, 2}, {1, 1, 4}, {2, 1, 2}, {2, 2, 2}} {
		row("R=%d×S=%d×P=%d, dram", shape[0], shape[1], shape[2], false)
	}
	for _, shape := range [][3]int{{1, 1, 4}, {2, 2, 2}} {
		row("R=%d×S=%d×P=%d, nvme win 2", shape[0], shape[1], shape[2], true)
	}
	fmt.Fprintf(&b, "\nstage spans partition the flat parameter space, so every gradient element\n")
	fmt.Fprintf(&b, "still folds in (micro-batch, group) order and the 1F1B interleaving reorders\n")
	fmt.Fprintf(&b, "only compute, never arithmetic — every (R,S,P) shape lands on its reference\n")
	fmt.Fprintf(&b, "trajectory bit for bit over either residency tier, and checkpoints move\n")
	fmt.Fprintf(&b, "freely across shapes (DESIGN.md, \"1F1B exactness\")")
	return b.String()
}
