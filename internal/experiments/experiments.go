// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from the systems in this repository. Each experiment has
// one entry point returning structured rows plus a Render method; the
// superbench CLI and the root bench suite are thin wrappers around these.
//
// Index (see DESIGN.md §3): Table1, Fig3, Fig4, Fig6, Fig7, Fig9, Fig10,
// Fig11, Fig12, Fig13, Table2, Table3, Fig14, Fig15.
package experiments

import (
	"fmt"

	"superoffload/internal/baselines"
	"superoffload/internal/core"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/sched"
)

// Systems returns SuperOffload plus all baselines in paper order.
func Systems() []sched.System {
	return append([]sched.System{core.New()}, baselines.All()...)
}

// ---- Table 1: node architecture comparison ----

// Table1Row is one column of the paper's Table 1 (transposed to rows).
type Table1Row struct {
	Node       string
	CPUBWGBs   float64
	LinkBWGBs  float64
	CPUCores   int
	CPUTFLOPS  float64
	GPUTFLOPS  float64
	FLOPSRatio float64
}

// Table1 reproduces the hardware comparison.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, c := range hw.Registry() {
		link := c.Link.PeakBW
		if c.Link.Duplex {
			link *= 2 // the paper quotes total (900 GB/s) for C2C
		}
		rows = append(rows, Table1Row{
			Node:       c.Name,
			CPUBWGBs:   c.CPU.MemBW / 1e9,
			LinkBWGBs:  link / 1e9,
			CPUCores:   c.CPU.Cores,
			CPUTFLOPS:  c.CPU.PeakFLOPS / 1e12,
			GPUTFLOPS:  c.GPU.PeakFLOPS / 1e12,
			FLOPSRatio: c.FLOPSRatio(),
		})
	}
	return rows
}

// RenderTable1 formats Table1 like the paper.
func RenderTable1() string {
	t := newTable("Node Arch", "CPU BW (GB/s)", "C<->GPU BW (GB/s)", "CPU Cores", "CPU TFLOPS", "GPU TFLOPS", "GPU/CPU")
	for _, r := range Table1() {
		t.Add(r.Node, r.CPUBWGBs, r.LinkBWGBs, r.CPUCores, r.CPUTFLOPS, r.GPUTFLOPS, r.FLOPSRatio)
	}
	return "Table 1: GPU node comparison\n" + t.String()
}

// ---- Fig. 3 / Fig. 8: schedules as Gantt charts ----

// fig38 builds the 5B single-chip schedule under the given mode and
// renders its Gantt chart.
func fig38(speculative bool, gpuBuckets int) (string, sched.SteadyStats) {
	m, _ := model.ByName("5B")
	chip := hw.GH200()
	bucketBytes := int64(hw.ZeROOffloadBucketBytes)
	impl := hw.AdamCPU
	cast := false
	if speculative {
		bucketBytes = hw.SuperOffloadBucketBytes
		impl = hw.AdamGrace
		cast = true
	}
	nb := m.GradBucketCount(bucketBytes)
	engine, st, err := sched.Build(sched.OffloadPlan{
		Chip: chip, Link: chip.Link, Model: m,
		Exec: sched.Execution{MicroBatch: 8, GradAccum: 1}, Seq: 1024,
		NBuckets: nb, BucketParams: m.Params() / int64(nb),
		GPUBuckets: gpuBuckets, CastOnGPU: cast, Speculative: speculative, CPUImpl: impl,
	})
	if err != nil {
		return err.Error(), st
	}
	return engine.Gantt(100), st
}

// Fig3 renders the ZeRO-Offload (synchronize-then-execute) schedule with
// its idle gaps.
func Fig3() string {
	g, st := fig38(false, 0)
	return fmt.Sprintf("Fig. 3: ZeRO-Offload STE schedule (5B, bsz 8)\nGPU idle: %s per iteration\n%s",
		pct(st.GPUIdleFrac), g)
}

// Fig8 renders the SuperOffload speculation-then-validation schedule.
func Fig8() string {
	g, st := fig38(true, 4)
	return fmt.Sprintf("Fig. 8: SuperOffload STV schedule (5B, bsz 8)\nGPU idle: %s per iteration\n%s",
		pct(st.GPUIdleFrac), g)
}

// ---- Fig. 4 / Fig. 15: GPU idle time ----

// IdleRow is one bar of Figs. 4/15.
type IdleRow struct {
	Setting  string
	System   string
	IdleFrac float64
}

// idleFor measures GPU idle for the largest model the system fits at the
// max batch, per the Fig. 4 methodology.
func idleFor(s sched.System, chips int) IdleRow {
	cl := hw.ClusterFor(chips)
	m := sched.MaxTrainable(s, cl, 8*chips, 1024)
	r := s.Plan(sched.Workload{Cluster: cl, Model: m, GlobalBatch: 8 * chips, Seq: 1024})
	setting := "One Superchip"
	if chips > 1 {
		setting = "One Node"
	}
	return IdleRow{Setting: setting, System: s.Name(), IdleFrac: r.GPUIdleFrac}
}

// Fig4 measures prior offloading's GPU idle on one Superchip and one node.
func Fig4() []IdleRow {
	return []IdleRow{idleFor(baselines.ZeROOffload, 1), idleFor(baselines.ZeROOffload, 4)}
}

// Fig15 measures SuperOffload's GPU idle in the same settings.
func Fig15() []IdleRow {
	return []IdleRow{idleFor(core.New(), 1), idleFor(core.New(), 4)}
}

// RenderIdle formats Fig. 4 / Fig. 15 rows.
func RenderIdle(title string, rows []IdleRow) string {
	t := newTable("Setting", "System", "GPU idle")
	for _, r := range rows {
		t.AddStrings(r.Setting, r.System, pct(r.IdleFrac))
	}
	return title + "\n" + t.String()
}

// ---- Fig. 6: efficiency vs bandwidth ----

// Fig6 returns the Eq. 1-3 sweep for batch 1/2/4 on a 7B model.
func Fig6() []core.EfficiencyPoint {
	return core.EfficiencySweep([]int{1, 2, 4}, model.Nearest(7e9).Params())
}

// RenderFig6 formats the sweep as one series per batch size.
func RenderFig6() string {
	t := newTable("BW (GB/s)", "Bsz1 (%)", "Bsz2 (%)", "Bsz4 (%)")
	pts := Fig6()
	for _, bw := range core.Fig6Bandwidths {
		row := []string{fmt.Sprintf("%.0f", bw)}
		for _, b := range []int{1, 2, 4} {
			for _, p := range pts {
				if p.Batch == b && p.BandwidthGBs == bw {
					row = append(row, fmt.Sprintf("%.1f", p.Efficiency))
				}
			}
		}
		t.AddStrings(row...)
	}
	return "Fig. 6: weight-flow efficiency vs bandwidth (Eq. 1-3, seq 1024)\n" + t.String()
}

// ---- Fig. 7: bandwidth vs tensor size ----

// Fig7 returns the GH200 C2C bandwidth sweep.
func Fig7() []hw.BandwidthPoint {
	return hw.GH200().Link.BandwidthSweep(256 << 20)
}

// RenderFig7 formats the sweep.
func RenderFig7() string {
	t := newTable("Tensor (MB)", "CPU->GPU (GB/s)", "GPU->CPU (GB/s)")
	for _, p := range Fig7() {
		t.AddStrings(fmt.Sprintf("%.2f", float64(p.SizeBytes)/(1<<20)),
			fmt.Sprintf("%.0f", p.H2DBps/1e9), fmt.Sprintf("%.0f", p.D2HBps/1e9))
	}
	return "Fig. 7: GH200 C2C bandwidth vs tensor size\n" + t.String()
}

// ---- Fig. 9: casting cost ----

// Fig9 returns the casting-path cost sweep on GH200.
func Fig9() []core.CastCostPoint {
	return core.CastCostSweep(hw.GH200())
}

// RenderFig9 formats the sweep.
func RenderFig9() string {
	t := newTable("Tensor (MB)", "Cast_cpu+Move_fp16 (ms)", "Cast_gpu+Move_fp32 (ms)")
	for _, p := range Fig9() {
		t.AddStrings(fmt.Sprintf("%d", p.SizeMB),
			fmt.Sprintf("%.2f", p.CastCPUMs), fmt.Sprintf("%.2f", p.CastGPUMs))
	}
	return "Fig. 9: casting path cost on GH200 (§4.5)\n" + t.String()
}

// ---- Fig. 10 / Fig. 11: throughput tables ----

// ThroughputCell is one bar of Figs. 10/11.
type ThroughputCell struct {
	Model  string
	System string
	Fits   bool
	TFLOPS float64
}

// Fig10Models are the single-Superchip model sizes swept.
var Fig10Models = []string{"1B", "3B", "5B", "10B", "13B", "15B", "20B", "25B"}

// Fig10 sweeps all systems on a single Superchip at batch 8.
func Fig10() []ThroughputCell { return throughput(1, 8, Fig10Models) }

// Fig11Models4 and Fig11Models16 are the multi-chip sweeps (§5.2 uses
// batch 16 on 4 chips and 128 on 16).
var (
	Fig11Models4  = []string{"5B", "8B", "13B", "15B", "20B", "30B", "50B"}
	Fig11Models16 = []string{"5B", "13B", "20B", "50B", "80B", "150B", "200B"}
)

// Fig11 sweeps 4- or 16-Superchip workloads.
func Fig11(chips int) []ThroughputCell {
	if chips >= 16 {
		return throughput(16, 128, Fig11Models16)
	}
	return throughput(4, 16, Fig11Models4)
}

func throughput(chips, batch int, names []string) []ThroughputCell {
	var out []ThroughputCell
	for _, name := range names {
		m, err := model.ByName(name)
		if err != nil {
			continue
		}
		w := sched.Workload{Cluster: hw.ClusterFor(chips), Model: m, GlobalBatch: batch, Seq: 1024}
		for _, s := range Systems() {
			r := s.Plan(w)
			out = append(out, ThroughputCell{Model: name, System: s.Name(), Fits: r.Fits, TFLOPS: r.TFLOPS})
		}
	}
	return out
}

// RenderThroughput formats a throughput sweep as a model × system matrix.
func RenderThroughput(title string, cells []ThroughputCell) string {
	systems := []string{}
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.System] {
			seen[c.System] = true
			systems = append(systems, c.System)
		}
	}
	t := newTable(append([]string{"Model"}, systems...)...)
	byModel := map[string][]ThroughputCell{}
	var order []string
	for _, c := range cells {
		if _, ok := byModel[c.Model]; !ok {
			order = append(order, c.Model)
		}
		byModel[c.Model] = append(byModel[c.Model], c)
	}
	for _, m := range order {
		row := []string{m}
		for _, s := range systems {
			cell := "OOM"
			for _, c := range byModel[m] {
				if c.System == s && c.Fits {
					cell = fmt.Sprintf("%.0f", c.TFLOPS)
				}
			}
			row = append(row, cell)
		}
		t.AddStrings(row...)
	}
	return title + " (TFLOPS per GPU)\n" + t.String()
}

// ---- Fig. 13: model scale ----

// ScaleRow is one bar group of Fig. 13.
type ScaleRow struct {
	Chips    int
	System   string
	MaxModel string
	Params   int64
}

// Fig13 finds the largest trainable model per system on 1/4/16 chips.
func Fig13() []ScaleRow {
	var rows []ScaleRow
	for _, chips := range []int{1, 4, 16} {
		batch := map[int]int{1: 8, 4: 16, 16: 128}[chips]
		for _, s := range Systems() {
			mx := sched.MaxTrainable(s, hw.ClusterFor(chips), batch, 1024)
			name := mx.Name
			if mx.Params() == 0 {
				name = "-"
			}
			rows = append(rows, ScaleRow{Chips: chips, System: s.Name(), MaxModel: name, Params: mx.Params()})
		}
	}
	return rows
}

// RenderFig13 formats the capacity matrix.
func RenderFig13(rows []ScaleRow) string {
	t := newTable("System", "1 chip", "4 chips", "16 chips")
	bySys := map[string]map[int]string{}
	var order []string
	for _, r := range rows {
		if _, ok := bySys[r.System]; !ok {
			bySys[r.System] = map[int]string{}
			order = append(order, r.System)
		}
		bySys[r.System][r.Chips] = r.MaxModel
	}
	for _, s := range order {
		t.AddStrings(s, bySys[s][1], bySys[s][4], bySys[s][16])
	}
	return "Fig. 13: largest trainable model\n" + t.String()
}
