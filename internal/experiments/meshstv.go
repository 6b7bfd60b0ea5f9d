package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"superoffload/internal/data"
	"superoffload/internal/dp"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// sliceRows splits a batch into r row slices — the reference
// decomposition for the mesh's data-parallel axis (data parallelism is
// gradient accumulation across groups).
func sliceRows(b data.Batch, r int) []data.Batch {
	per := b.BatchSize / r
	out := make([]data.Batch, r)
	for g := 0; g < r; g++ {
		lo, hi := g*per*b.Seq, (g+1)*per*b.Seq
		out[g] = data.Batch{Tokens: b.Tokens[lo:hi], Targets: b.Targets[lo:hi], BatchSize: per, Seq: b.Seq}
	}
	return out
}

// ExtMeshSTV exercises the hybrid R×S mesh engine — the composition
// behind the paper's multi-superchip results (Fig. 11a/b, Fig. 12): R
// data-parallel replica groups, each running S-way Ulysses sequence
// parallelism and ZeRO-sharded offloaded optimization internally. For
// each shape it trains a real GPT and checks the exactness contract: the
// loss trajectory (rollbacks included) is bit-identical to a single-rank
// trainer consuming the same R-way row decomposition via gradient
// accumulation (the sequence axis must be invisible, exactly as in
// ext-ulysses-stv), checkpoints are byte-identical to the reference's,
// and the NVMe tier composes without disturbing a bit.
func ExtMeshSTV() string {
	const (
		steps       = 30
		batch       = 4
		seq         = 16
		bucketElems = 4096
	)
	cfg := model.Config{Name: "ext", Layers: 2, Hidden: 64, Heads: 4, Vocab: 128}
	adam := optim.DefaultConfig()
	adam.LR = 3e-3

	// Single-rank reference trajectory per data-parallel degree R: the
	// trainer accumulates each global batch's R row slices in group
	// order — the same fold the mesh's cross-group reduce performs.
	reference := func(r int) ([]float64, stv.Stats, []byte) {
		refModel := nn.NewGPT(cfg, seq, tensor.NewRNG(21))
		ref := stv.NewTrainer(refModel, stv.Config{
			Adam: adam, Impl: optim.GraceAdam, ClipNorm: 3.0,
			BucketElems: bucketElems, Mode: stv.STV,
		})
		corpus := data.NewCorpus(cfg.Vocab, 23)
		losses := make([]float64, 0, steps)
		for i := 0; i < steps; i++ {
			l, err := ref.StepAccum(sliceRows(corpus.NextBatch(batch, seq), r))
			if err != nil {
				panic(err)
			}
			losses = append(losses, l)
		}
		if _, err := ref.Flush(); err != nil {
			panic(err)
		}
		var ckpt bytes.Buffer
		if err := ref.Save(&ckpt); err != nil {
			panic(err)
		}
		return losses, ref.Stats(), ckpt.Bytes()
	}
	refs := map[int]struct {
		losses []float64
		stats  stv.Stats
		ckpt   []byte
	}{}
	for _, r := range []int{2, 4} {
		losses, st, ckpt := reference(r)
		refs[r] = struct {
			losses []float64
			stats  stv.Stats
			ckpt   []byte
		}{losses, st, ckpt}
	}

	run := func(r, s int, newStore func(rank int) (stv.BucketStore, error)) ([]float64, stv.Stats, dp.SPCommStats, []byte) {
		eng, err := dp.New(nn.NewGPT(cfg, seq, tensor.NewRNG(21)), dp.Config{
			Ranks: r, SeqRanks: s, Adam: adam, Impl: optim.GraceAdam, ClipNorm: 3.0,
			BucketElems: bucketElems, NewStore: newStore,
		})
		if err != nil {
			panic(err)
		}
		// Close surfaces latched NVMe background-IO failures; dropping
		// it would render a success table from a corrupted run.
		defer func() {
			if cerr := eng.Close(); cerr != nil {
				panic(cerr)
			}
		}()
		c := data.NewCorpus(cfg.Vocab, 23)
		losses := make([]float64, 0, steps)
		for i := 0; i < steps; i++ {
			l, err := eng.Step(c.NextBatch(batch, seq))
			if err != nil {
				panic(err)
			}
			losses = append(losses, l)
		}
		if _, err := eng.Flush(); err != nil {
			panic(err)
		}
		var ckpt bytes.Buffer
		if err := eng.Save(&ckpt); err != nil {
			panic(err)
		}
		return losses, eng.Stats(), eng.CommStats(), ckpt.Bytes()
	}

	exactVs := func(r int, losses []float64) string {
		for i, rl := range refs[r].losses {
			if losses[i] != rl {
				return "DIVERGED (bug!)"
			}
		}
		return "bit-identical"
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Extension: hybrid R×S mesh (data × Ulysses sequence parallelism) over the STV engine\n")
	fmt.Fprintf(&b, "model: %d heads, batch %d, seq %d, ≤%d-elem buckets; ClipNorm 3.0 forces a commit/rollback mix\n",
		cfg.Heads, batch, seq, bucketElems)
	for _, r := range []int{2, 4} {
		fmt.Fprintf(&b, "single-rank reference (R=%d-way row accumulation) over %d steps: final loss %.4f, %d commits, %d rollbacks\n",
			r, steps, refs[r].losses[steps-1], refs[r].stats.Commits, refs[r].stats.Rollbacks())
	}

	fmt.Fprintf(&b, "\n%-22s %-14s %-10s %16s %14s %10s\n",
		"configuration", "trajectory", "rollbacks", "a2a floats/step", "ring hops/step", "ckpt=ref")
	row := func(name string, r int, losses []float64, st stv.Stats, cs dp.SPCommStats, ckpt []byte) {
		same := "yes"
		if !bytes.Equal(ckpt, refs[r].ckpt) {
			same = "NO (bug!)"
		}
		fmt.Fprintf(&b, "%-22s %-14s %-10d %16d %14d %10s\n",
			name, exactVs(r, losses), st.Rollbacks(),
			cs.A2AFloats/int64(steps), cs.RingHops/int64(steps), same)
	}
	for _, shape := range [][2]int{{2, 2}, {2, 4}, {4, 2}} {
		r, s := shape[0], shape[1]
		losses, st, cs, ckpt := run(r, s, nil)
		row(fmt.Sprintf("R=%d×S=%d, dram", r, s), r, losses, st, cs, ckpt)
	}
	for _, shape := range [][2]int{{2, 2}, {4, 2}} {
		r, s := shape[0], shape[1]
		losses, st, cs, ckpt := run(r, s, func(rank int) (stv.BucketStore, error) {
			return stv.NewNVMeStore(stv.NVMeStoreConfig{ResidentBuckets: 2})
		})
		row(fmt.Sprintf("R=%d×S=%d, nvme win 2", r, s), r, losses, st, cs, ckpt)
	}
	fmt.Fprintf(&b, "\neach group's ring reproduces its row slice's single-rank gradient; the\n")
	fmt.Fprintf(&b, "cross-group reduce-scatter folds the R slices in group order — the same fold\n")
	fmt.Fprintf(&b, "gradient accumulation uses — so every mesh shape lands on its reference\n")
	fmt.Fprintf(&b, "trajectory bit for bit, over either residency tier (fig11a/b hold the analytic\n")
	fmt.Fprintf(&b, "multi-superchip throughput model this run grounds)")
	return b.String()
}
