package experiments

import (
	"fmt"
	"strings"

	"superoffload/internal/core"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/place"
	"superoffload/internal/sched"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// ExtPlacementSTV exercises the heterogeneous placement subsystem on the
// real STV engine: the same GPT trains under four bucket placements —
// homogeneous (no plan), all-CPU, all-GPU, and the adaptive GPU-tail
// split derived from the analytic planner's 5B/GH200 decision
// (core.Plan → place.FromCore) — plus the split with its offloaded body
// spilling through the windowed NVMe store. The report asserts the
// tentpole contract (every placement trains bit-identically: losses,
// rollbacks, checkpoints) and prints the virtual-clock superchip
// executor's telemetry per placement: modeled pipelined vs serialized
// step time and the per-tier census. The §4.3 claim must hold on the
// clocks: the planner-derived split reports a strictly lower pipelined
// step time than all-CPU.
func ExtPlacementSTV() string {
	cfg := model.Config{Name: "ext", Layers: 2, Hidden: 64, Heads: 4, Vocab: 128}

	// Bucket count of the toy partition (every run derives the same one).
	nb := len(stv.PartitionGroups(nn.NewGPT(cfg, 16, tensor.NewRNG(21)).Params(), extBucketElems))

	// The adaptive split: the analytic planner's placement for the
	// paper's 5B single-Superchip workload, mapped onto the toy
	// partition — the superplan -emit-placement → supertrain path.
	w := sched.Workload{Cluster: hw.ClusterFor(1), Model: mustByName("5B"), GlobalBatch: 8, Seq: 1024}
	cp, ok := core.New().Describe(w)
	if !ok {
		panic("experiments: 5B does not fit one GH200")
	}
	auto := place.FromCore(cp, nb)

	allCPU := place.Uniform(nb, place.CPUAdam)
	allGPU := place.Uniform(nb, place.GPUResident)
	nvmePlan := auto.WithNVMeBody()
	nvmeStore, err := stv.NewPlacedStoreFlash(nvmePlan, func() (stv.BucketStore, error) {
		return stv.NewNVMeStore(stv.NVMeStoreConfig{})
	})
	if err != nil {
		panic(err)
	}

	refLosses, refStats, _ := extRun(cfg, tiers{})
	type row struct {
		name string
		tel  stv.PlacementTelemetry
	}
	var rows []row
	var runs [][]float64
	sameStats := true
	for _, pc := range []struct {
		name  string
		plan  place.Plan
		store stv.BucketStore
	}{
		{"all-CPU", allCPU, nil},
		{"all-GPU", allGPU, nil},
		{fmt.Sprintf("auto (%s)", auto), auto, nil},
		{fmt.Sprintf("auto+nvme (%s)", nvmePlan), nvmePlan, nvmeStore},
	} {
		plan := pc.plan
		losses, stats, tel := extRun(cfg, tiers{store: pc.store, plan: &plan})
		runs = append(runs, losses)
		sameStats = sameStats && stats == refStats
		rows = append(rows, row{pc.name, tel})
	}

	exactStr := sameLosses(refLosses, runs...)
	if !sameStats {
		exactStr = "DIVERGED (bug!)"
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Extension: adaptive GPU/CPU bucket placement on the real STV engine\n")
	fmt.Fprintf(&b, "model: %d params in %d ≤%d-elem buckets; analytic source plan: 5B on GH200 → GPU tail %d/%d\n",
		nn.NewGPT(cfg, 16, tensor.NewRNG(21)).NumParams(), nb, extBucketElems, cp.GPUBuckets, cp.NBuckets)
	fmt.Fprintf(&b, "loss trajectories across all placements over %d steps: %s (final loss %.4f, %d commits, %d rollbacks)\n",
		extSteps, exactStr, refLosses[len(refLosses)-1], refStats.Commits, refStats.Rollbacks())
	fmt.Fprintf(&b, "\nvirtual superchip step time      gpu/cpu/nvme   pipelined    serialized     hidden\n")
	for _, r := range rows {
		n := float64(r.tel.Steps)
		fmt.Fprintf(&b, "  %-28s %4d/%2d/%2d %10.3f ms %10.3f ms %8.0f%%\n",
			r.name,
			r.tel.Tiers[place.GPUResident].Buckets,
			r.tel.Tiers[place.CPUAdam].Buckets,
			r.tel.Tiers[place.NVMeWindow].Buckets,
			1e3*r.tel.PipelinedSeconds/n, 1e3*r.tel.SerializedSeconds/n,
			100*r.tel.HiddenFraction())
	}
	autoPipe, cpuPipe := rows[2].tel.PipelinedSeconds, rows[0].tel.PipelinedSeconds
	verdict := "OK"
	if autoPipe >= cpuPipe {
		verdict = "VIOLATION (bug!)"
	}
	fmt.Fprintf(&b, "\n§4.3 adaptive placement: auto pipelined %.3f ms vs all-CPU %.3f ms per step → %s\n",
		1e3*autoPipe/float64(extSteps), 1e3*cpuPipe/float64(extSteps), verdict)
	fmt.Fprintf(&b, "pipelined = backward + unhidden optimizer work; serialized = every phase end to end")
	return b.String()
}

// mustByName resolves an Appendix A label or panics (experiment-internal).
func mustByName(name string) model.Config {
	m, err := model.ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}
