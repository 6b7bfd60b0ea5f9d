// Adaptive placement: the paper's §4.3 weight-update split on the real
// engine. The analytic planner decides how many buckets a paper-scale
// workload should retain on the GPU (the tail whose post-backward
// D2H → CPU-Adam → H2D round trip nothing can hide); the real STV engine
// consumes that decision through the placement subsystem and trains with
// a GPU-resident tail, a CPU-Adam body, and — composed with the nvme
// backend — an NVMe-windowed body, all bit-identical to the homogeneous
// engine (internal/dp's TestEnginePlacementBitExact and
// TestBenchWorkloadCombinations check that). The virtual-clock superchip
// executor reports the modeled step time each placement would cost on a
// GH200, and this example self-checks the §4.3 claim (auto beats
// all-CPU).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"superoffload"
)

const steps = 40

// train runs the toy model under one placement and returns the
// executor's telemetry.
func train(pc superoffload.PlacementConfig) (superoffload.PlacementTelemetry, error) {
	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: 2, Hidden: 64, Vocab: 128, MaxSeq: 16,
	}, 7)
	if err != nil {
		return superoffload.PlacementTelemetry{}, err
	}
	cfg := superoffload.DefaultOptimizer()
	cfg.ClipNorm = 4.0
	cfg.BucketElems = 4096 // dozens of buckets, so the split is visible
	cfg.Placement = pc
	engine, err := superoffload.Init(model, cfg)
	if err != nil {
		return superoffload.PlacementTelemetry{}, err
	}
	defer engine.Close()
	corpus := superoffload.NewCorpus(128, 9)
	for i := 0; i < steps; i++ {
		if _, err := engine.Step(corpus.NextBatch(4, 16)); err != nil {
			return superoffload.PlacementTelemetry{}, err
		}
	}
	if err := engine.Flush(); err != nil {
		return superoffload.PlacementTelemetry{}, err
	}
	tel, ok := engine.PlacementTelemetry()
	if !ok {
		return tel, fmt.Errorf("%+v: no placement telemetry", pc)
	}
	return tel, engine.Close()
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run trains under each placement, writes the modeled step times to w,
// and checks that auto beats all-CPU.
func run(w io.Writer) error {
	// What the analytic planner would retain for the paper's 5B
	// single-Superchip workload — the decision the real engine reuses.
	p, err := superoffload.DescribePlacement(superoffload.PlanRequest{Model: "5B", Chips: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "analytic 5B plan: GPU-retained tail %d of %d buckets (%s)\n", p.GPUBuckets, p.NBuckets, p.Plan)
	fmt.Fprintf(w, "real engine: supertrain %s\n\n", p.Flags)

	report := func(name string, pc superoffload.PlacementConfig) (superoffload.PlacementTelemetry, error) {
		tel, err := train(pc)
		if err != nil {
			return tel, err
		}
		n := float64(tel.Steps)
		fmt.Fprintf(w, "  %-10s %2d gpu / %2d cpu / %2d nvme buckets: %7.3f ms pipelined vs %7.3f ms serialized\n",
			name, tel.Tiers[0].Buckets, tel.Tiers[1].Buckets, tel.Tiers[2].Buckets,
			1e3*tel.PipelinedSeconds/n, 1e3*tel.SerializedSeconds/n)
		return tel, nil
	}

	fmt.Fprintf(w, "modeled GH200 step time per placement (%d real steps):\n", steps)
	cpu, err := report("all-cpu", superoffload.PlacementConfig{Mode: "cpu"})
	if err != nil {
		return err
	}
	if _, err := report("all-gpu", superoffload.PlacementConfig{Mode: "gpu"}); err != nil {
		return err
	}
	auto, err := report("auto", superoffload.PlacementConfig{Mode: "auto", GPUBuckets: p.GPUBuckets, Batch: 4, Seq: 16})
	if err != nil {
		return err
	}

	if auto.PipelinedSeconds >= cpu.PipelinedSeconds {
		return fmt.Errorf("§4.3 violated: auto pipelined %.6f s not below all-CPU %.6f s",
			auto.PipelinedSeconds, cpu.PipelinedSeconds)
	}
	fmt.Fprintf(w, "\nOK: the GPU-retained tail's pipelined step time beats full CPU offload (%.3f ms vs %.3f ms)\n",
		1e3*auto.PipelinedSeconds/float64(auto.Steps), 1e3*cpu.PipelinedSeconds/float64(cpu.Steps))
	return nil
}
