package experiments

import (
	"fmt"
	"strings"

	"superoffload/internal/model"
)

// ExtUlyssesSTV is the real-engine counterpart of the analytic
// SuperOffload-Ulysses model behind fig12: instead of predicting MFU for
// sequence sharding on modeled hardware, it trains an actual GPT with the
// sequence-parallel engine — S ranks over sequence shards, two attention
// all-to-alls per layer per pass, a deterministic weight-gradient ring,
// ZeRO-sharded optimizer state behind per-rank bucket stores — and
// reports the §4.7 composition's headline properties: the loss
// trajectory (rollbacks included) is bit-identical to single-rank
// training for S ∈ {2,4}, checkpoints are byte-identical across S, the
// NVMe tier composes without disturbing a bit, and the all-to-all/ring
// traffic scales the way head parallelism prescribes.
func ExtUlyssesSTV() string {
	x := shapeRuns{
		cfg:   model.Config{Name: "ext", Layers: 2, Hidden: 64, Heads: 4, Vocab: 128},
		steps: 30, micros: 1, batch: 2,
	}
	// Single-rank reference trajectory (whole batches, no decomposition).
	ref := x.reference(1)

	var b strings.Builder
	fmt.Fprintf(&b, "Extension: real Ulysses sequence parallelism over the STV engine\n")
	fmt.Fprintf(&b, "model: %d params, %d heads, seq %d, ≤%d-elem buckets; ClipNorm 3.0 forces a commit/rollback mix\n",
		x.model().NumParams(), x.cfg.Heads, shapeSeq, shapeBucketElems)
	fmt.Fprintf(&b, "single-rank reference over %d steps: final loss %.4f, %d commits, %d rollbacks\n",
		x.steps, ref.losses[x.steps-1], ref.stats.Commits, ref.stats.Rollbacks())

	fmt.Fprintf(&b, "\n%-22s %-14s %-10s %16s %14s %10s\n",
		"configuration", "trajectory", "rollbacks", "a2a floats/step", "ring hops/step", "ckpt=S1")
	row := func(name string, s int, nvme bool) {
		t, cs := x.run(1, s, 1, nvme)
		exact, same := x.exactVs(1, t)
		fmt.Fprintf(&b, "%-22s %-14s %-10d %16d %14d %10s\n",
			name, exact, t.stats.Rollbacks(),
			cs.A2AFloats/int64(x.steps), cs.RingHops/int64(x.steps), same)
	}
	for _, s := range []int{2, 4} {
		row(fmt.Sprintf("S=%d, dram", s), s, false)
	}
	row("S=4, nvme window 2", 4, true)
	fmt.Fprintf(&b, "\ntwo all-to-alls per layer per pass flip attention between sequence and head\n")
	fmt.Fprintf(&b, "sharding; the weight-gradient ring replays rows in global order, so every\n")
	fmt.Fprintf(&b, "configuration lands on the single-rank trajectory bit for bit (fig12 holds the\n")
	fmt.Fprintf(&b, "analytic internal/ulysses scale model this run grounds)")
	return b.String()
}
