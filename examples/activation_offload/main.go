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
//     rollbacks and redo-forwards included.
//  3. The double-buffered prefetch keeps activation traffic off the
//     critical path: the pipelined virtual clock beats the serialized
//     spill+compute+fetch schedule.
package main

import (
	"errors"
	"fmt"
	"log"
	"strings"

	"superoffload"
	"superoffload/internal/hw"
)

const (
	steps = 25
	rows  = 2
	seq   = 32
)

func train(offload string, budget int64) ([]float64, superoffload.Stats, *superoffload.ActTelemetry) {
	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: 6, Hidden: 64, Heads: 4, Vocab: 128, MaxSeq: seq,
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	cfg := superoffload.DefaultOptimizer()
	cfg.ClipNorm = 4.0
	cfg.Activation = superoffload.ActivationConfig{
		Offload: offload, ResidentLayers: 2, HBMBudgetBytes: budget,
	}
	engine, err := superoffload.Init(model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Close surfaces latched background-IO failures from the nvme tier's
	// worker; a dropped error here would hide a corrupted run.
	defer func() {
		if cerr := engine.Close(); cerr != nil {
			log.Fatal(cerr)
		}
	}()
	corpus := superoffload.NewCorpus(128, 11)
	var losses []float64
	for step := 1; step <= steps; step++ {
		loss, err := engine.Step(corpus.NextBatch(rows, seq))
		if err != nil {
			log.Fatal(err)
		}
		losses = append(losses, loss)
	}
	if err := engine.Flush(); err != nil {
		log.Fatal(err)
	}
	if tel, ok := engine.ActTelemetry(); ok {
		return losses, engine.Stats(), &tel
	}
	return losses, engine.Stats(), nil
}

func main() {
	// ---- 1. the HBM guard: overflow without offload, trains with it ----
	// A budget sized for the fp16 replica plus three resident layers —
	// too small for all six, comfortable for the offloaded window of two.
	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: 6, Hidden: 64, Heads: 4, Vocab: 128, MaxSeq: seq,
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	budget := 4*int64(model.NumParams()) + 3*hw.ActLayerBytes(rows*seq, 64, 4, seq)
	cfg := superoffload.DefaultOptimizer()
	cfg.Activation.HBMBudgetBytes = budget
	engine, err := superoffload.Init(model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	_, err = engine.Step(superoffload.NewCorpus(128, 11).NextBatch(rows, seq))
	if err == nil {
		log.Fatal("overflowing shape trained without activation offload")
	}
	var cfgErr *superoffload.ConfigError
	if !errors.As(err, &cfgErr) || cfgErr.Field != "Batch.BatchSize" || !strings.Contains(cfgErr.Error(), "Activation.Offload") {
		log.Fatalf("guard error does not name the batch and hint at offloading: %v", err)
	}
	if cerr := engine.Close(); cerr != nil {
		log.Fatal(cerr)
	}
	fmt.Printf("without offload, the %d×%d shape overflows the %d MiB budget:\n  %v\n",
		rows, seq, budget>>20, err)

	// ---- 2. bit-exactness across tiers, under the same tight budget ----
	fmt.Println("\ntraining the same GPT resident (unlimited HBM), dram-spilled, and nvme-spilled:")
	resident, residentStats, residentTel := train("", 0)
	dram, dramStats, dramTel := train("dram", budget)
	nvme, nvmeStats, nvmeTel := train("nvme", budget)
	if residentTel != nil {
		log.Fatal("resident engine reported activation telemetry")
	}
	for i := range resident {
		if resident[i] != dram[i] || resident[i] != nvme[i] {
			log.Fatalf("trajectories diverged at step %d: the activation tier broke bit-exactness", i+1)
		}
	}
	if residentStats != dramStats || residentStats != nvmeStats {
		log.Fatalf("stats diverged across tiers: %+v vs %+v vs %+v", residentStats, dramStats, nvmeStats)
	}
	fmt.Printf("  loss %.4f → %.4f (%d commits, %d rollbacks) on all three\n",
		resident[0], resident[steps-1], residentStats.Commits, residentStats.Rollbacks())
	fmt.Println("  trajectories are bit-identical: spilling is invisible to the numerics")

	// ---- 3. the prefetch pipeline beats the serialized schedule ----
	fmt.Printf("\nper-pass traffic: %d spills (%.2f MB), %d fetches (%.2f MB) across %d passes\n",
		nvmeTel.Spills, float64(nvmeTel.BytesSpilled)/1e6,
		nvmeTel.Fetches, float64(nvmeTel.BytesFetched)/1e6, nvmeTel.Passes)
	for _, tier := range []struct {
		name string
		tel  *superoffload.ActTelemetry
	}{{"dram", dramTel}, {"nvme", nvmeTel}} {
		pipe, serial := tier.tel.PipelinedSeconds(), tier.tel.SerializedSeconds()
		if pipe >= serial {
			log.Fatalf("%s: pipelined %.3fs is not faster than serialized %.3fs", tier.name, pipe, serial)
		}
		fmt.Printf("  %s: %.3f ms pipelined vs %.3f ms serialized per step (prefetch hides %.0f%%)\n",
			tier.name, 1e3*pipe/steps, 1e3*serial/steps, 100*(1-pipe/serial))
	}
}
