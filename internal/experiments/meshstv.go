package experiments

import (
	"fmt"
	"strings"

	"superoffload/internal/model"
)

// ExtMeshSTV exercises the hybrid R×S mesh engine — the composition
// behind the paper's multi-superchip results (Fig. 11a/b, Fig. 12): R
// data-parallel replica groups, each running S-way Ulysses sequence
// parallelism and ZeRO-sharded offloaded optimization internally. For
// each shape it trains a real GPT and checks the exactness contract: the
// loss trajectory (rollbacks included) is bit-identical to the (1,1,1)
// engine consuming the same R-way row decomposition via gradient
// accumulation (the sequence axis must be invisible, exactly as in
// ext-ulysses-stv), checkpoints are byte-identical to the reference's,
// and the NVMe tier composes without disturbing a bit.
func ExtMeshSTV() string {
	x := shapeRuns{
		cfg:   model.Config{Name: "ext", Layers: 2, Hidden: 64, Heads: 4, Vocab: 128},
		steps: 30, micros: 1, batch: 4,
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Extension: hybrid R×S mesh (data × Ulysses sequence parallelism) over the STV engine\n")
	fmt.Fprintf(&b, "model: %d heads, batch %d, seq %d, ≤%d-elem buckets; ClipNorm 3.0 forces a commit/rollback mix\n",
		x.cfg.Heads, x.batch, shapeSeq, shapeBucketElems)
	for _, r := range []int{2, 4} {
		ref := x.reference(r)
		fmt.Fprintf(&b, "single-rank reference (R=%d-way row accumulation) over %d steps: final loss %.4f, %d commits, %d rollbacks\n",
			r, x.steps, ref.losses[x.steps-1], ref.stats.Commits, ref.stats.Rollbacks())
	}

	fmt.Fprintf(&b, "\n%-22s %-14s %-10s %16s %14s %10s\n",
		"configuration", "trajectory", "rollbacks", "a2a floats/step", "ring hops/step", "ckpt=ref")
	row := func(format string, r, s int, nvme bool) {
		t, cs := x.run(r, s, 1, nvme)
		exact, same := x.exactVs(r, t)
		fmt.Fprintf(&b, "%-22s %-14s %-10d %16d %14d %10s\n",
			fmt.Sprintf(format, r, s), exact, t.stats.Rollbacks(),
			cs.A2AFloats/int64(x.steps), cs.RingHops/int64(x.steps), same)
	}
	for _, shape := range [][2]int{{2, 2}, {2, 4}, {4, 2}} {
		row("R=%d×S=%d, dram", shape[0], shape[1], false)
	}
	for _, shape := range [][2]int{{2, 2}, {4, 2}} {
		row("R=%d×S=%d, nvme win 2", shape[0], shape[1], true)
	}
	fmt.Fprintf(&b, "\neach group's ring reproduces its row slice's single-rank gradient; the\n")
	fmt.Fprintf(&b, "cross-group reduce-scatter folds the R slices in group order — the same fold\n")
	fmt.Fprintf(&b, "gradient accumulation uses — so every mesh shape lands on its reference\n")
	fmt.Fprintf(&b, "trajectory bit for bit, over either residency tier (fig11a/b hold the analytic\n")
	fmt.Fprintf(&b, "multi-superchip throughput model this run grounds)")
	return b.String()
}
