// Ulysses sequence parallelism, for real: the paper's long-sequence
// scenario (§4.7, Fig. 12) runs here on actual numerics rather than the
// analytic MFU model behind `superbench -exp fig12`. S simulated
// superchip ranks each own a contiguous sequence shard of every batch
// row; attention flips to head parallelism through two all-to-alls per
// layer per pass; weight gradients reduce over a deterministic ring; and
// the ZeRO-sharded optimizer state streams through per-rank bucket
// stores — composed with STV's speculative step, background validation,
// and exact rollback. The headline property: the loss trajectory is
// bit-identical to single-rank training on the same batches, for any
// rank count and either residency tier.
package main

import (
	"fmt"
	"log"

	"superoffload"
)

const (
	steps = 40
	batch = 2
	seq   = 32 // "long" for the toy model: 4 shards of 8 positions at S=4
	vocab = 128
)

func train(seqRanks int, backend string) ([]float64, superoffload.Stats, superoffload.SPCommStats) {
	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: 2, Hidden: 64, Heads: 4, Vocab: vocab, MaxSeq: seq,
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	cfg := superoffload.DefaultOptimizer()
	cfg.ClipNorm = 4.0
	cfg.BucketElems = 16384 // several buckets → every rank owns a ZeRO shard
	cfg.Offload = superoffload.OffloadConfig{Backend: backend, ResidentBuckets: 2}
	engine, err := superoffload.InitSP(model, cfg, superoffload.SPConfig{SeqRanks: seqRanks})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if cerr := engine.Close(); cerr != nil {
			log.Fatal(cerr)
		}
	}()
	corpus := superoffload.NewCorpus(vocab, 11)
	var losses []float64
	for step := 1; step <= steps; step++ {
		loss, err := engine.Step(corpus.NextBatch(batch, seq))
		if err != nil {
			log.Fatal(err)
		}
		losses = append(losses, loss)
	}
	if err := engine.Flush(); err != nil {
		log.Fatal(err)
	}
	return losses, engine.Stats(), engine.CommStats()
}

func main() {
	fmt.Printf("training one GPT at sequence %d across 1, 2 and 4 sequence ranks:\n", seq)
	ref, refStats, _ := train(1, "dram")
	for _, s := range []int{2, 4} {
		losses, stats, comm := train(s, "dram")
		exact := true
		for i := range ref {
			if losses[i] != ref[i] {
				exact = false
				break
			}
		}
		if !exact || stats != refStats {
			log.Fatalf("S=%d diverged from single-rank training (stats %+v vs %+v)", s, stats, refStats)
		}
		fmt.Printf("  S=%d: loss %.4f → %.4f, %d commits, %d rollbacks — bit-identical to S=1\n",
			s, losses[0], losses[steps-1], stats.Commits, stats.Rollbacks())
		fmt.Printf("       links: %.0f all-to-all payloads/step (%.2f MB/step), %.0f ring hops/step\n",
			float64(comm.A2APayloads)/steps, float64(comm.A2AFloats)*4/1e6/steps,
			float64(comm.RingHops)/steps)
	}

	// The full §4.7 composition: sequence sharding over the NVMe
	// optimizer tier — long sequences AND optimizer state beyond DRAM.
	nvme, nvmeStats, _ := train(4, "nvme")
	for i := range ref {
		if nvme[i] != ref[i] {
			log.Fatal("nvme-backed SP run diverged: the store broke bit-exactness")
		}
	}
	fmt.Printf("  S=4 + nvme bucket stores: still bit-identical (%d commits, %d rollbacks)\n",
		nvmeStats.Commits, nvmeStats.Rollbacks())
	fmt.Println("\nsequence parallelism and optimizer-state residency are both")
	fmt.Println("invisible to the numerics; only the link traffic changes.")
	fmt.Println("(The analytic Fig. 12 scale model: go run ./cmd/superbench -exp fig12.)")
}
