// Activation offloading: the SSDTrain-style tier that spills each
// layer's forward activations out of HBM as the forward pass's
// write-behind window slides past them, and prefetches them back ahead
// of the backward pass with async double buffering. The example makes
// the repository's three claims on a toy model, self-checking each:
//
//  1. A seq×batch shape whose resident activations overflow the modeled
//     HBM budget is rejected up front — and trains once -act-offload
//     shrinks the resident window.
//  2. Spilling is numerically invisible: the DRAM-cache and NVMe-file
//     tiers train bit-identically to the fully resident engine,
//     rollbacks included.
//  3. The double-buffered prefetch keeps activation traffic off the
//     critical path: the pipelined virtual clock beats the serialized
//     spill+compute+fetch schedule.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"superoffload"
	"superoffload/internal/hw"
)

const (
	steps = 25
	rows  = 2
	seq   = 32
)

// train runs the demo model under one activation tier and returns its
// losses, Stats and activation telemetry (ok false when resident).
func train(offload string, budget int64) (losses []float64, st superoffload.Stats, tel superoffload.ActTelemetry, ok bool, err error) {
	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: 6, Hidden: 64, Heads: 4, Vocab: 128, MaxSeq: seq,
	}, 7)
	if err != nil {
		return
	}
	cfg := superoffload.DefaultOptimizer()
	cfg.ClipNorm = 4.0
	cfg.Activation = superoffload.ActivationConfig{
		Offload: offload, ResidentLayers: 2, HBMBudgetBytes: budget,
	}
	engine, err := superoffload.Init(model, cfg)
	if err != nil {
		return
	}
	defer engine.Close()
	corpus := superoffload.NewCorpus(128, 11)
	for step := 1; step <= steps; step++ {
		var loss float64
		if loss, err = engine.Step(corpus.NextBatch(rows, seq)); err != nil {
			return
		}
		losses = append(losses, loss)
	}
	if err = engine.Flush(); err != nil {
		return
	}
	tel, ok = engine.ActTelemetry()
	// Close surfaces latched background-IO failures from the nvme tier's
	// worker; a dropped error here would hide a corrupted run.
	return losses, engine.Stats(), tel, ok, engine.Close()
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run makes the three claims, writing the report to w; a claim that does
// not hold is its error.
func run(w io.Writer) error {
	// ---- 1. the HBM guard: overflow without offload, trains with it ----
	// A budget sized for the fp16 replica plus three resident layers —
	// too small for all six, comfortable for the offloaded window of two.
	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: 6, Hidden: 64, Heads: 4, Vocab: 128, MaxSeq: seq,
	}, 7)
	if err != nil {
		return err
	}
	budget := 4*int64(model.NumParams()) + 3*hw.ActLayerBytes(rows*seq, 64, 4, seq)
	cfg := superoffload.DefaultOptimizer()
	cfg.Activation.HBMBudgetBytes = budget
	engine, err := superoffload.Init(model, cfg)
	if err != nil {
		return err
	}
	_, err = engine.Step(superoffload.NewCorpus(128, 11).NextBatch(rows, seq))
	if cerr := engine.Close(); cerr != nil {
		return cerr
	}
	if err == nil {
		return errors.New("overflowing shape trained without activation offload")
	}
	var cfgErr *superoffload.ConfigError
	if !errors.As(err, &cfgErr) || cfgErr.Field != "Batch.BatchSize" || !strings.Contains(cfgErr.Error(), "Activation.Offload") {
		return fmt.Errorf("guard error does not name the batch and hint at offloading: %w", err)
	}
	fmt.Fprintf(w, "without offload, the %d×%d shape overflows the %d MiB budget:\n  %v\n",
		rows, seq, budget>>20, err)

	// ---- 2. bit-exactness across tiers, under the same tight budget ----
	fmt.Fprintln(w, "\ntraining the same GPT resident (unlimited HBM), dram-spilled, and nvme-spilled:")
	resident, residentStats, _, residentTel, err := train("", 0)
	if err != nil {
		return err
	}
	dram, dramStats, dramTel, _, err := train("dram", budget)
	if err != nil {
		return err
	}
	nvme, nvmeStats, nvmeTel, _, err := train("nvme", budget)
	if err != nil {
		return err
	}
	if residentTel {
		return errors.New("resident engine reported activation telemetry")
	}
	for i := range resident {
		if resident[i] != dram[i] || resident[i] != nvme[i] {
			return fmt.Errorf("trajectories diverged at step %d: the activation tier broke bit-exactness", i+1)
		}
	}
	if residentStats != dramStats || residentStats != nvmeStats {
		return fmt.Errorf("stats diverged across tiers: %+v vs %+v vs %+v", residentStats, dramStats, nvmeStats)
	}
	fmt.Fprintf(w, "  loss %.4f → %.4f (%d commits, %d rollbacks) on all three\n",
		resident[0], resident[steps-1], residentStats.Commits, residentStats.Rollbacks())
	fmt.Fprintln(w, "  trajectories are bit-identical: spilling is invisible to the numerics")

	// ---- 3. the prefetch pipeline beats the serialized schedule ----
	fmt.Fprintf(w, "\nper-pass traffic: %d spills (%.2f MB), %d fetches (%.2f MB) across %d passes\n",
		nvmeTel.Spills, float64(nvmeTel.BytesSpilled)/1e6,
		nvmeTel.Fetches, float64(nvmeTel.BytesFetched)/1e6, nvmeTel.Passes)
	for _, tier := range []struct {
		name string
		tel  superoffload.ActTelemetry
	}{{"dram", dramTel}, {"nvme", nvmeTel}} {
		pipe, serial := tier.tel.PipelinedSeconds(), tier.tel.SerializedSeconds()
		if pipe >= serial {
			return fmt.Errorf("%s: pipelined %.3fs is not faster than serialized %.3fs", tier.name, pipe, serial)
		}
		fmt.Fprintf(w, "  %s: %.3f ms pipelined vs %.3f ms serialized per step (prefetch hides %.0f%%)\n",
			tier.name, 1e3*pipe/steps, 1e3*serial/steps, 100*(1-pipe/serial))
	}
	return nil
}
