// NVMe offload: the repository's documented ext-nvme extension, on both
// layers. Analytically, ZeRO-Infinity's flash tier extends trainable
// model scale on a single Superchip far past the DDR bound (at a swap
// throughput price). For real, the same third tier runs under the STV
// engine: fp32 masters and Adam moments live in a file-backed store that
// keeps only a two-bucket window resident, prefetches the next bucket
// while the current one steps, and flushes write-behind — with a loss
// trajectory bit-identical to the DRAM-resident engine, rollbacks and
// all.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"superoffload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

const steps = 40

// train runs the demo model over the given optimizer-state backend and
// returns its losses, Stats and flash telemetry (zero on DRAM).
func train(backend string) (losses []float64, st superoffload.Stats, tel superoffload.StoreTelemetry, err error) {
	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: 2, Hidden: 64, Vocab: 128, MaxSeq: 16,
	}, 7)
	if err != nil {
		return
	}
	cfg := superoffload.DefaultOptimizer()
	cfg.ClipNorm = 4.0
	// Small buckets so the toy model splits into dozens of buckets;
	// the nvme backend then streams ~15× its resident window through
	// the backing file every step.
	cfg.BucketElems = 4096
	cfg.Offload = superoffload.OffloadConfig{Backend: backend, ResidentBuckets: 2}
	engine, err := superoffload.Init(model, cfg)
	if err != nil {
		return
	}
	defer engine.Close()
	corpus := superoffload.NewCorpus(128, 11)
	for step := 1; step <= steps; step++ {
		var loss float64
		if loss, err = engine.Step(corpus.NextBatch(4, 16)); err != nil {
			return
		}
		losses = append(losses, loss)
	}
	if err = engine.Flush(); err != nil {
		return
	}
	tel, _ = engine.StoreTelemetry()
	// Close surfaces latched background-IO failures from the nvme
	// worker; a dropped error here would hide a corrupted run.
	return losses, engine.Stats(), tel, engine.Close()
}

// run prints the ext-nvme experiment, then trains on both backends,
// checks the trajectories are bit-identical and reports the flash
// traffic.
func run(w io.Writer) error {
	// ---- analytical: what the flash tier buys on modeled hardware ----
	out, err := superoffload.RunExperiment("ext-nvme")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, out)

	// ---- real numerics: the STV engine with windowed optimizer state ----
	fmt.Fprintln(w, "training the same GPT with DRAM-resident and NVMe-windowed optimizer state:")
	dramLosses, dramStats, _, err := train("dram")
	if err != nil {
		return err
	}
	nvmeLosses, nvmeStats, tel, err := train("nvme")
	if err != nil {
		return err
	}

	exact := true
	for i := range dramLosses {
		if dramLosses[i] != nvmeLosses[i] {
			exact = false
			break
		}
	}
	fmt.Fprintf(w, "  dram: loss %.4f → %.4f (%d commits, %d rollbacks)\n",
		dramLosses[0], dramLosses[steps-1], dramStats.Commits, dramStats.Rollbacks())
	fmt.Fprintf(w, "  nvme: loss %.4f → %.4f (%d commits, %d rollbacks)\n",
		nvmeLosses[0], nvmeLosses[steps-1], nvmeStats.Commits, nvmeStats.Rollbacks())
	if !exact {
		return errors.New("trajectories diverged: the store broke bit-exactness")
	}
	fmt.Fprintln(w, "  trajectories are bit-identical: residency is invisible to the numerics")

	fmt.Fprintf(w, "\nflash traffic over %d steps: %d reads (%.1f MB), %d writes (%.1f MB)\n",
		steps, tel.Reads, float64(tel.BytesRead)/1e6, tel.Writes, float64(tel.BytesWritten)/1e6)
	fmt.Fprintf(w, "modeled step time: %.3f ms pipelined vs %.3f ms serialized — the\n",
		1e3*tel.PipelinedSeconds()/steps, 1e3*tel.SerializedSeconds()/steps)
	fmt.Fprintln(w, "double-buffered prefetch keeps the Adam step off the fetch+flush critical path.")
	return nil
}
