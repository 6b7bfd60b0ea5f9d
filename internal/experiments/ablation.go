package experiments

import (
	"fmt"
	"time"

	"superoffload/internal/core"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/optim"
	"superoffload/internal/sched"
	"superoffload/internal/tensor"
	"superoffload/internal/ulysses"
)

// ---- Table 2: optimization breakdown ----

// Table2Row is one row of the ablation ladder.
type Table2Row struct {
	GraceAdam bool
	SAC       bool
	STV       bool
	BucketRep bool
	TFLOPS    float64
}

// Table2 enables each optimization cumulatively on the 5B single-chip
// workload (§5.5).
func Table2() []Table2Row {
	m, _ := model.ByName("5B")
	w := sched.Workload{Cluster: hw.ClusterFor(1), Model: m, GlobalBatch: 8, Seq: 1024}
	opts := core.Options{NUMABinding: true}
	ladder := []func(*core.Options){
		func(o *core.Options) {},
		func(o *core.Options) { o.GraceAdam = true },
		func(o *core.Options) { o.SuperchipCasting = true },
		func(o *core.Options) { o.Speculation = true },
		func(o *core.Options) { o.BucketRepartition = true },
	}
	var rows []Table2Row
	for _, enable := range ladder {
		enable(&opts)
		r := core.NewWith(opts).Plan(w)
		rows = append(rows, Table2Row{
			GraceAdam: opts.GraceAdam, SAC: opts.SuperchipCasting,
			STV: opts.Speculation, BucketRep: opts.BucketRepartition,
			TFLOPS: r.TFLOPS,
		})
	}
	return rows
}

// RenderTable2 formats the ladder like the paper's Table 2.
func RenderTable2(rows []Table2Row) string {
	t := newTable("GraceAdam", "Cast Optim.", "STV", "Buck. Repart.", "Throughput")
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		t.AddStrings(mark(r.GraceAdam), mark(r.SAC), mark(r.STV), mark(r.BucketRep),
			fmt.Sprintf("%.2f", r.TFLOPS))
	}
	out := "Table 2: SuperOffload optimization breakdown (5B, single Superchip)\n" + t.String()
	if len(rows) >= 2 {
		out += fmt.Sprintf("total speedup: %.2fx\n", rows[len(rows)-1].TFLOPS/rows[0].TFLOPS)
	}
	return out
}

// ---- Table 3: Adam kernel latency ----

// Table3Row compares the three CPU Adam implementations at one model size.
type Table3Row struct {
	Params int64
	// Modeled latencies at Grace scale (seconds), from the calibrated
	// memory-bandwidth model.
	ModelPTCPU, ModelCPUAdam, ModelGrace float64
	// Measured latencies of this repository's real Go kernels at a
	// laptop-scale shard (MeasuredParams elements), seconds.
	MeasuredParams                    int64
	MeasPTCPU, MeasCPUAdam, MeasGrace float64
}

// Table3Sizes are the paper's model sizes (1-8B parameters).
var Table3Sizes = []int64{1e9, 2e9, 4e9, 8e9}

// Table3 produces both the Grace-scale modeled latencies and real
// measurements of the three Go kernels at measureParams elements
// (measureParams ≤ 0 picks 4M).
func Table3(measureParams int64) []Table3Row {
	if measureParams <= 0 {
		measureParams = 4 << 20
	}
	chip := hw.GH200()
	var rows []Table3Row
	for _, p := range Table3Sizes {
		r := Table3Row{
			Params:         p,
			ModelPTCPU:     hw.AdamStepTime(chip, hw.AdamNaive, p),
			ModelCPUAdam:   hw.AdamStepTime(chip, hw.AdamCPU, p),
			ModelGrace:     hw.AdamStepTime(chip, hw.AdamGrace, p),
			MeasuredParams: measureParams,
		}
		r.MeasPTCPU = measureAdam(optim.NaiveAdam, int(measureParams))
		r.MeasCPUAdam = measureAdam(optim.CPUAdam, int(measureParams))
		r.MeasGrace = measureAdam(optim.GraceAdam, int(measureParams))
		rows = append(rows, r)
	}
	return rows
}

// measureAdam times reps of one kernel over n parameters and returns the
// best per-step seconds.
func measureAdam(impl optim.Impl, n int) float64 {
	rng := tensor.NewRNG(1234)
	p := make([]float32, n)
	g := make([]float32, n)
	for i := range p {
		p[i] = rng.NormFloat32()
		g[i] = rng.NormFloat32() * 0.1
	}
	s := optim.NewState(n)
	cfg := optim.DefaultConfig()
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		impl(cfg, p, g, s, rep+1)
		el := time.Since(start).Seconds()
		if best == 0 || el < best {
			best = el
		}
	}
	return best
}

// RenderTable3 formats modeled and measured latencies side by side.
func RenderTable3(rows []Table3Row) string {
	t := newTable("#Params", "PT-CPU (s)", "CPU-Adam (s)", "GraceAdam (s)", "PT/Grace", "CPU/Grace")
	for _, r := range rows {
		t.AddStrings(fmt.Sprintf("%d billion", r.Params/1e9),
			fmt.Sprintf("%.3f", r.ModelPTCPU), fmt.Sprintf("%.3f", r.ModelCPUAdam),
			fmt.Sprintf("%.3f", r.ModelGrace),
			fmt.Sprintf("%.2fx", r.ModelPTCPU/r.ModelGrace),
			fmt.Sprintf("%.2fx", r.ModelCPUAdam/r.ModelGrace))
	}
	out := "Table 3: Adam latency, Grace-scale model\n" + t.String()
	if len(rows) > 0 {
		r := rows[0]
		m := newTable("#Params (measured)", "PT-CPU", "CPU-Adam", "GraceAdam", "PT/Grace", "CPU/Grace")
		m.AddStrings(fmt.Sprintf("%dM (this host)", r.MeasuredParams>>20),
			seconds(r.MeasPTCPU), seconds(r.MeasCPUAdam), seconds(r.MeasGrace),
			fmt.Sprintf("%.2fx", r.MeasPTCPU/r.MeasGrace),
			fmt.Sprintf("%.2fx", r.MeasCPUAdam/r.MeasGrace))
		out += "\nReal Go kernels measured on this machine:\n" + m.String()
	}
	return out
}

// ---- Fig. 12: long-sequence training ----

// Fig12Panel is one subplot of Fig. 12.
type Fig12Panel struct {
	Model  string
	Chips  int
	Points []ulysses.Point
}

// Fig12 produces all three panels: 13B×4, 13B×8, 30B×8.
func Fig12() []Fig12Panel {
	m13, _ := model.ByName("13B")
	m30, _ := model.ByName("30B")
	return []Fig12Panel{
		{Model: "13B", Chips: 4, Points: ulysses.Sweep(hw.ClusterFor(4), m13)},
		{Model: "13B", Chips: 8, Points: ulysses.Sweep(hw.ClusterFor(8), m13)},
		{Model: "30B", Chips: 8, Points: ulysses.Sweep(hw.ClusterFor(8), m30)},
	}
}

// RenderFig12 formats the panels.
func RenderFig12(panels []Fig12Panel) string {
	out := "Fig. 12: sequence length scaling and MFU (Ulysses vs SuperOffload-Ulysses)\n"
	for _, p := range panels {
		t := newTable("Seq", ulysses.Vanilla.String()+" MFU", ulysses.SuperOffloadUlysses.String()+" MFU")
		bySeq := map[int][2]string{}
		for _, pt := range p.Points {
			cell := "OOM"
			if pt.Fits {
				cell = fmt.Sprintf("%.2f", pt.MFU)
			}
			pair := bySeq[pt.Seq]
			if pt.System == ulysses.Vanilla {
				pair[0] = cell
			} else {
				pair[1] = cell
			}
			bySeq[pt.Seq] = pair
		}
		for _, seq := range ulysses.SeqLadder {
			pair := bySeq[seq]
			t.AddStrings(fmt.Sprintf("%dK", seq>>10), pair[0], pair[1])
		}
		out += fmt.Sprintf("(%s, %d-Superchip)\n%s", p.Model, p.Chips, t.String())
	}
	return out
}
