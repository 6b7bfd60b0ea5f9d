package superoffload

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"superoffload/internal/hw"
	"superoffload/internal/stv/stvtest"
)

func TestFig1Facade(t *testing.T) {
	// The paper's Fig. 1: enable SuperOffload with a few lines.
	m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Vocab: 64, MaxSeq: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Init(m, DefaultOptimizer())
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewCorpus(64, 2)
	var first, last float64
	const steps = 100
	for i := 0; i < steps; i++ {
		loss, err := eng.Step(corpus.NextBatch(2, 8))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(last) || last > first {
		t.Errorf("training did not progress: %.3f -> %.3f", first, last)
	}
	st := eng.Stats()
	if st.Steps != steps {
		t.Errorf("steps = %d, want %d", st.Steps, steps)
	}
	if eng.NumBuckets() < 1 {
		t.Error("no buckets")
	}
}

// TestOffloadFacade: the nvme backend trains bit-identically to dram
// through the public surface, reports telemetry, and rejects unknown
// backends — on both engines.
func TestOffloadFacade(t *testing.T) {
	train := func(backend string, ranks int) ([]float64, StoreTelemetry, bool) {
		m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Vocab: 64, MaxSeq: 16}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultOptimizer()
		cfg.BucketElems = 4000
		cfg.Offload = OffloadConfig{Backend: backend, Dir: t.TempDir(), ResidentBuckets: 2}
		corpus := NewCorpus(64, 2)
		var losses []float64
		step := func(e interface {
			Step(Batch) (float64, error)
			Flush() error
		}) {
			for i := 0; i < 8; i++ {
				l, err := e.Step(corpus.NextBatch(2, 8))
				if err != nil {
					t.Fatal(err)
				}
				losses = append(losses, l)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if ranks > 1 {
			e, err := InitDP(m, cfg, DPConfig{Ranks: ranks})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			step(e)
			tel, ok := e.StoreTelemetry()
			return losses, tel, ok
		}
		e, err := Init(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		step(e)
		tel, ok := e.StoreTelemetry()
		return losses, tel, ok
	}
	dram, _, dramOK := train("dram", 1)
	nvme, tel, nvmeOK := train("nvme", 1)
	if dramOK {
		t.Error("dram backend reported NVMe telemetry")
	}
	if !nvmeOK || tel.Reads == 0 || tel.Writes == 0 {
		t.Errorf("nvme backend telemetry missing or idle: ok=%v %+v", nvmeOK, tel)
	}
	for i := range dram {
		if dram[i] != nvme[i] {
			t.Fatalf("losses diverge at step %d: %v vs %v", i, dram[i], nvme[i])
		}
	}
	if _, _, ok := train("nvme", 2); !ok {
		t.Error("DP engine on nvme backend reported no telemetry")
	}

	m, _ := NewModel(ModelConfig{Layers: 1, Hidden: 16, Vocab: 32, MaxSeq: 8}, 1)
	bad := DefaultOptimizer()
	bad.Offload.Backend = "tape"
	if _, err := Init(m, bad); err == nil {
		t.Error("unknown offload backend accepted by Init")
	}
	if _, err := InitDP(m, bad, DPConfig{Ranks: 2}); err == nil {
		t.Error("unknown offload backend accepted by InitDP")
	}
}

// TestInitClosesBucketStoreWhenActivationStoreFails: an activation tier
// that cannot open its backing file fails Init after the bucket store is
// already up; the error must not strand the store's lane goroutines or
// its backing files, on either engine.
func TestInitClosesBucketStoreWhenActivationStoreFails(t *testing.T) {
	m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Vocab: 64, MaxSeq: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(OptimizerConfig) (*Engine, error){
		"Init":   func(cfg OptimizerConfig) (*Engine, error) { return Init(m, cfg) },
		"InitDP": func(cfg OptimizerConfig) (*Engine, error) { return InitDP(m, cfg, DPConfig{Ranks: 2}) },
	} {
		dir := t.TempDir()
		cfg := DefaultOptimizer()
		cfg.Offload = OffloadConfig{Backend: "nvme", Dir: dir, IOPaths: 2}
		cfg.Activation = ActivationConfig{Offload: "nvme", Dir: filepath.Join(dir, "nonexistent")}
		before := runtime.NumGoroutine()
		if _, err := build(cfg); err == nil {
			t.Fatalf("%s: activation store opened in a directory that does not exist", name)
		}
		stvtest.NoLeakedGoroutines(t, before)
		if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
			t.Errorf("%s: %d backing files left behind (%v)", name, len(left), err)
		}
	}
}

// TestActivationFacade: a step shape that overflows the modeled HBM
// budget is rejected up front with a hint, and the same shape trains
// successfully — with spill telemetry — once activation offloading is
// enabled, on every engine.
func TestActivationFacade(t *testing.T) {
	const (
		layers, hidden, heads = 6, 32, 2
		rows, seq             = 2, 16
	)
	newM := func() *Model {
		m, err := NewModel(ModelConfig{Layers: layers, Hidden: hidden, Heads: heads, Vocab: 64, MaxSeq: 2 * seq}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// A budget that holds the replica plus three resident layers — too
	// small for all six, comfortable for the offloaded window of two.
	m := newM()
	budget := 4*int64(m.NumParams()) + 3*hw.ActLayerBytes(rows*seq, hidden, heads, seq)

	corpus := NewCorpus(64, 3)
	batch := func() Batch { return corpus.NextBatch(rows, seq) }

	t.Run("overflow-rejected", func(t *testing.T) {
		cfg := DefaultOptimizer()
		cfg.Activation.HBMBudgetBytes = budget
		eng, err := Init(newM(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		_, err = eng.Step(batch())
		if err == nil {
			t.Fatal("overflowing shape trained without activation offload")
		}
		if !strings.Contains(err.Error(), "act-offload") {
			t.Errorf("guard error does not hint at offloading: %v", err)
		}
	})

	builders := []struct {
		name string
		init func(cfg OptimizerConfig) (interface {
			Step(Batch) (float64, error)
			Flush() error
			ActTelemetry() (ActTelemetry, bool)
			Close() error
		}, error)
		rowsDiv, seqDiv int
	}{
		{"single", func(cfg OptimizerConfig) (interface {
			Step(Batch) (float64, error)
			Flush() error
			ActTelemetry() (ActTelemetry, bool)
			Close() error
		}, error) {
			return Init(newM(), cfg)
		}, 1, 1},
		{"dp-r2", func(cfg OptimizerConfig) (interface {
			Step(Batch) (float64, error)
			Flush() error
			ActTelemetry() (ActTelemetry, bool)
			Close() error
		}, error) {
			return InitDP(newM(), cfg, DPConfig{Ranks: 2})
		}, 2, 1},
		{"sp-s2", func(cfg OptimizerConfig) (interface {
			Step(Batch) (float64, error)
			Flush() error
			ActTelemetry() (ActTelemetry, bool)
			Close() error
		}, error) {
			return InitSP(newM(), cfg, SPConfig{SeqRanks: 2})
		}, 1, 2},
		{"mesh-2x2", func(cfg OptimizerConfig) (interface {
			Step(Batch) (float64, error)
			Flush() error
			ActTelemetry() (ActTelemetry, bool)
			Close() error
		}, error) {
			return InitMesh(newM(), cfg, MeshConfig{Ranks: 2, SeqRanks: 2})
		}, 2, 2},
	}
	for _, b := range builders {
		t.Run("offloaded-"+b.name, func(t *testing.T) {
			cfg := DefaultOptimizer()
			cfg.Activation = ActivationConfig{
				Offload: "dram", ResidentLayers: 2, HBMBudgetBytes: budget,
			}
			eng, err := b.init(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			// Per-rank tokens shrink under DP/SP, so scale the batch up to
			// keep the per-rank shape identical to the single-rank case.
			for i := 0; i < 4; i++ {
				if _, err := eng.Step(corpus.NextBatch(rows*b.rowsDiv, seq*b.seqDiv)); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			tel, ok := eng.ActTelemetry()
			if !ok || tel.Spills == 0 || tel.Fetches == 0 {
				t.Errorf("activation telemetry missing or idle: ok=%v %+v", ok, tel)
			}
		})
	}

	t.Run("unknown-tier", func(t *testing.T) {
		cfg := DefaultOptimizer()
		cfg.Activation.Offload = "tape"
		if _, err := Init(newM(), cfg); err == nil {
			t.Error("unknown activation tier accepted by Init")
		}
		if _, err := InitDP(newM(), cfg, DPConfig{Ranks: 2}); err == nil {
			t.Error("unknown activation tier accepted by InitDP")
		}
	})
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(ModelConfig{Layers: 0, Hidden: 32, Vocab: 64}, 1); err == nil {
		t.Error("zero layers accepted")
	}
	if _, err := NewModel(ModelConfig{Layers: 1, Hidden: 30, Heads: 4, Vocab: 64}, 1); err == nil {
		t.Error("indivisible heads accepted")
	}
	m, err := NewModel(ModelConfig{Layers: 1, Hidden: 64, Vocab: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumParams() < 1000 {
		t.Error("param count implausible")
	}
	if _, err := Init(nil, DefaultOptimizer()); err == nil {
		t.Error("nil model accepted")
	}
}

func TestSynchronousFallback(t *testing.T) {
	m, _ := NewModel(ModelConfig{Layers: 1, Hidden: 32, Vocab: 32, MaxSeq: 8}, 3)
	cfg := DefaultOptimizer()
	cfg.Synchronous = true
	eng, err := Init(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewCorpus(32, 4)
	if _, err := eng.Step(corpus.NextBatch(1, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHeadline(t *testing.T) {
	r, err := Plan(PlanRequest{Model: "5B", Chips: 1, GlobalBatch: 8, Seq: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Fits {
		t.Fatalf("5B must fit: %s", r.OOMReason)
	}
	if r.TFLOPS < 200 {
		t.Errorf("5B single-chip = %.1f TFLOPS, expected ≈239", r.TFLOPS)
	}
	if r.MicroBatch < 1 || r.IterSeconds <= 0 {
		t.Errorf("plan fields: %+v", r)
	}
	if _, err := Plan(PlanRequest{Model: "9999B"}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestPlanDefaults(t *testing.T) {
	r, err := Plan(PlanRequest{Model: "5B"}) // chips/batch/seq defaulted
	if err != nil || !r.Fits {
		t.Fatalf("defaulted plan failed: %v %v", r, err)
	}
}

func TestCompareIncludesAllSystems(t *testing.T) {
	rs, err := Compare(PlanRequest{Model: "5B", Chips: 1, GlobalBatch: 8, Seq: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("expected 8 systems, got %d", len(rs))
	}
	if rs[0].System != "SuperOffload" {
		t.Errorf("first system = %s", rs[0].System)
	}
	// SuperOffload beats every fitting baseline on this workload.
	for _, r := range rs[1:] {
		if r.Fits && r.TFLOPS >= rs[0].TFLOPS {
			t.Errorf("%s (%.0f) ≥ SuperOffload (%.0f)", r.System, r.TFLOPS, rs[0].TFLOPS)
		}
	}
}

func TestModelNamesAndExperiments(t *testing.T) {
	names := ModelNames()
	if len(names) < 20 {
		t.Errorf("model zoo too small: %d", len(names))
	}
	exps := ExperimentNames()
	if len(exps) != 24 {
		t.Errorf("experiment registry has %d entries, want 24", len(exps))
	}
	out, err := RunExperiment("table1")
	if err != nil || !strings.Contains(out, "GH200") {
		t.Errorf("table1: %v\n%s", err, out)
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestDescribeDecisions(t *testing.T) {
	// Weight-stationary at moderate scale...
	d, err := Describe(PlanRequest{Model: "5B", Chips: 1, GlobalBatch: 8, Seq: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if d.Policy != "weight-stationary" {
		t.Errorf("5B policy = %s", d.Policy)
	}
	if d.CastPath != "Cast_gpu↔Move_fp32" {
		t.Errorf("cast path = %s", d.CastPath)
	}
	if d.BucketMB != 64 {
		t.Errorf("bucket = %d MB, want 64", d.BucketMB)
	}
	// ...weight-flow when the states outgrow HBM.
	d25, err := Describe(PlanRequest{Model: "25B", Chips: 1, GlobalBatch: 8, Seq: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if d25.Policy != "weight-flow" {
		t.Errorf("25B policy = %s", d25.Policy)
	}
	if d25.Efficiency <= 0.6 {
		t.Errorf("25B streaming efficiency = %.2f, should clear the 60%% bar", d25.Efficiency)
	}
	if _, err := Describe(PlanRequest{Model: "50B", Chips: 1}); err == nil {
		t.Error("50B on one chip should not be plannable")
	}
}

func TestEngineAccumScheduleCheckpoint(t *testing.T) {
	m, _ := NewModel(ModelConfig{Layers: 1, Hidden: 32, Vocab: 64, MaxSeq: 8}, 4)
	cfg := DefaultOptimizer()
	cfg.ClipNorm = 5
	cfg.WarmupSteps = 5
	cfg.TotalSteps = 50
	cfg.MinLRFrac = 0.1
	eng, err := Init(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewCorpus(64, 8)
	for i := 0; i < 10; i++ {
		if _, err := eng.StepAccum([]Batch{corpus.NextBatch(1, 8), corpus.NextBatch(1, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, _ := NewModel(ModelConfig{Layers: 1, Hidden: 32, Vocab: 64, MaxSeq: 8}, 999)
	eng2, _ := Init(m2, cfg)
	if err := eng2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	l1, err := eng.Step(NewCorpus(64, 55).NextBatch(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := eng2.Step(NewCorpus(64, 55).NextBatch(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatalf("restored engine diverges: %v vs %v", l1, l2)
	}
}

// TestInitDPFacade mirrors the paper's multi-superchip enablement: the
// data-parallel engine behind the same two-line surface, on a loss
// trajectory bit-identical to the single-rank engine consuming the same
// R-way micro-batch decomposition — including across a rollback.
func TestInitDPFacade(t *testing.T) {
	const ranks, steps = 2, 20
	mk := func(seed uint64) *Model {
		m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Vocab: 64, MaxSeq: 16}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cfg := DefaultOptimizer()
	cfg.LR = 3e-3
	cfg.ClipNorm = 1.0 // tight enough to trigger rollbacks on this workload
	cfg.BucketElems = 20000

	dpe, err := InitDP(mk(42), cfg, DPConfig{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	defer dpe.Close()
	single, err := Init(mk(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if dpe.Ranks() != ranks || dpe.NumBuckets() != single.NumBuckets() {
		t.Fatalf("layout mismatch: ranks=%d buckets %d vs %d", dpe.Ranks(), dpe.NumBuckets(), single.NumBuckets())
	}

	corpus := NewCorpus(64, 123)
	refCorpus := NewCorpus(64, 123)
	for i := 0; i < steps; i++ {
		b := corpus.NextBatch(4, 8)
		dl, err := dpe.Step(b)
		if err != nil {
			t.Fatal(err)
		}
		rb := refCorpus.NextBatch(4, 8)
		half := rb.BatchSize / ranks * rb.Seq
		sl, err := single.StepAccum([]Batch{
			{Tokens: rb.Tokens[:half], Targets: rb.Targets[:half], BatchSize: rb.BatchSize / ranks, Seq: rb.Seq},
			{Tokens: rb.Tokens[half:], Targets: rb.Targets[half:], BatchSize: rb.BatchSize / ranks, Seq: rb.Seq},
		})
		if err != nil {
			t.Fatal(err)
		}
		if dl != sl {
			t.Fatalf("step %d: DP loss %v != single-rank loss %v", i, dl, sl)
		}
	}
	if err := dpe.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := single.Flush(); err != nil {
		t.Fatal(err)
	}
	if dpe.Stats() != single.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", dpe.Stats(), single.Stats())
	}
	if dpe.Stats().Rollbacks() == 0 {
		t.Error("facade equivalence run triggered no rollbacks")
	}

	// Checkpoints are interchangeable between the two engines.
	var buf bytes.Buffer
	if err := dpe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Init(mk(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := restored.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("DP checkpoint does not round-trip through the single-rank engine")
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInitDPValidation(t *testing.T) {
	if _, err := InitDP(nil, DefaultOptimizer(), DPConfig{Ranks: 2}); err == nil {
		t.Error("nil model accepted")
	}
	m, _ := NewModel(ModelConfig{Layers: 1, Hidden: 32, Vocab: 32, MaxSeq: 8}, 1)
	if _, err := InitDP(m, DefaultOptimizer(), DPConfig{Ranks: -1}); err == nil {
		t.Error("negative ranks accepted")
	}
	eng, err := InitDP(m, DefaultOptimizer(), DPConfig{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Step(NewCorpus(32, 2).NextBatch(3, 8)); err == nil {
		t.Error("batch not divisible by ranks accepted")
	}
}

// TestInitSPFacade mirrors the paper's long-sequence enablement: the
// sequence-parallel engine behind the same two-line surface, on a loss
// trajectory bit-identical to the single-rank engine consuming the SAME
// undivided batches — including across a rollback — with checkpoints
// interchangeable between the engines.
func TestInitSPFacade(t *testing.T) {
	const seqRanks, steps = 2, 20
	mk := func(seed uint64) *Model {
		m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Heads: 4, Vocab: 64, MaxSeq: 16}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cfg := DefaultOptimizer()
	cfg.LR = 3e-3
	cfg.ClipNorm = 1.0 // tight enough to trigger rollbacks on this workload
	cfg.BucketElems = 20000

	spe, err := InitSP(mk(42), cfg, SPConfig{SeqRanks: seqRanks})
	if err != nil {
		t.Fatal(err)
	}
	defer spe.Close()
	single, err := Init(mk(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if spe.SeqRanks() != seqRanks || spe.NumBuckets() != single.NumBuckets() {
		t.Fatalf("layout mismatch: seqRanks=%d buckets %d vs %d", spe.SeqRanks(), spe.NumBuckets(), single.NumBuckets())
	}

	corpus := NewCorpus(64, 123)
	refCorpus := NewCorpus(64, 123)
	for i := 0; i < steps; i++ {
		sl, err := spe.Step(corpus.NextBatch(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		rl, err := single.Step(refCorpus.NextBatch(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		if sl != rl {
			t.Fatalf("step %d: SP loss %v != single-rank loss %v", i, sl, rl)
		}
	}
	if err := spe.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := single.Flush(); err != nil {
		t.Fatal(err)
	}
	if spe.Stats() != single.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", spe.Stats(), single.Stats())
	}
	if spe.Stats().Rollbacks() == 0 {
		t.Error("facade equivalence run triggered no rollbacks")
	}
	if cs := spe.CommStats(); cs.A2APayloads == 0 || cs.RingHops == 0 {
		t.Errorf("no collective traffic recorded: %+v", cs)
	}

	// Checkpoints are interchangeable between the two engines.
	var buf bytes.Buffer
	if err := spe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Init(mk(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := restored.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("SP checkpoint does not round-trip through the single-rank engine")
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInitSPValidation(t *testing.T) {
	if _, err := InitSP(nil, DefaultOptimizer(), SPConfig{SeqRanks: 2}); err == nil {
		t.Error("nil model accepted")
	}
	m, _ := NewModel(ModelConfig{Layers: 1, Hidden: 32, Heads: 4, Vocab: 32, MaxSeq: 8}, 1)
	if _, err := InitSP(m, DefaultOptimizer(), SPConfig{SeqRanks: -1}); err == nil {
		t.Error("negative seq ranks accepted")
	}
	if _, err := InitSP(m, DefaultOptimizer(), SPConfig{SeqRanks: 3}); err == nil {
		t.Error("head count not divisible by seq ranks accepted")
	}
	bad := DefaultOptimizer()
	bad.Offload.Backend = "tape"
	if _, err := InitSP(m, bad, SPConfig{SeqRanks: 2}); err == nil {
		t.Error("unknown offload backend accepted by InitSP")
	}
	eng, err := InitSP(m, DefaultOptimizer(), SPConfig{SeqRanks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Step(NewCorpus(32, 2).NextBatch(2, 7)); err == nil {
		t.Error("sequence not divisible by seq ranks accepted")
	}
}

// TestInitMeshFacade: the hybrid R×S mesh behind the facade must land
// bit for bit on the data-parallel engine's trajectory for the same R
// (the sequence axis is invisible), with interchangeable checkpoints.
func TestInitMeshFacade(t *testing.T) {
	const ranks, seqRanks, steps = 2, 2, 20
	mk := func(seed uint64) *Model {
		m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Heads: 4, Vocab: 64, MaxSeq: 16}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cfg := DefaultOptimizer()
	cfg.LR = 3e-3
	cfg.ClipNorm = 1.0 // tight enough to trigger rollbacks on this workload
	cfg.BucketElems = 20000

	mesh, err := InitMesh(mk(42), cfg, MeshConfig{Ranks: ranks, SeqRanks: seqRanks})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	dpe, err := InitDP(mk(42), cfg, DPConfig{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	defer dpe.Close()
	if mesh.Ranks() != ranks || mesh.SeqRanks() != seqRanks || mesh.NumBuckets() != dpe.NumBuckets() {
		t.Fatalf("layout mismatch: R=%d S=%d buckets %d vs %d",
			mesh.Ranks(), mesh.SeqRanks(), mesh.NumBuckets(), dpe.NumBuckets())
	}

	corpus := NewCorpus(64, 123)
	refCorpus := NewCorpus(64, 123)
	for i := 0; i < steps; i++ {
		ml, err := mesh.Step(corpus.NextBatch(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		rl, err := dpe.Step(refCorpus.NextBatch(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		if ml != rl {
			t.Fatalf("step %d: mesh loss %v != DP loss %v", i, ml, rl)
		}
	}
	if err := mesh.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := dpe.Flush(); err != nil {
		t.Fatal(err)
	}
	if mesh.Stats() != dpe.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", mesh.Stats(), dpe.Stats())
	}
	if mesh.Stats().Rollbacks() == 0 {
		t.Error("facade equivalence run triggered no rollbacks")
	}
	if cs := mesh.CommStats(); cs.A2APayloads == 0 || cs.RingHops == 0 {
		t.Errorf("no collective traffic recorded: %+v", cs)
	}

	// Checkpoints are interchangeable between the engines.
	var buf bytes.Buffer
	if err := mesh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Init(mk(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := restored.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("mesh checkpoint does not round-trip through the single-rank engine")
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInitMeshValidation covers the facade-level guards.
func TestInitMeshValidation(t *testing.T) {
	if _, err := InitMesh(nil, DefaultOptimizer(), MeshConfig{Ranks: 2, SeqRanks: 2}); err == nil {
		t.Error("nil model accepted")
	}
	m, _ := NewModel(ModelConfig{Layers: 1, Hidden: 32, Heads: 4, Vocab: 32, MaxSeq: 8}, 1)
	if _, err := InitMesh(m, DefaultOptimizer(), MeshConfig{Ranks: -1, SeqRanks: 2}); err == nil {
		t.Error("negative groups accepted")
	}
	if _, err := InitMesh(m, DefaultOptimizer(), MeshConfig{Ranks: 2, SeqRanks: -1}); err == nil {
		t.Error("negative seq ranks accepted")
	}
	if _, err := InitMesh(m, DefaultOptimizer(), MeshConfig{Ranks: 2, SeqRanks: 3}); err == nil {
		t.Error("head count not divisible by seq ranks accepted")
	}
	bad := DefaultOptimizer()
	bad.Offload.Backend = "tape"
	if _, err := InitMesh(m, bad, MeshConfig{Ranks: 2, SeqRanks: 2}); err == nil {
		t.Error("unknown offload backend accepted by InitMesh")
	}
	eng, err := InitMesh(m, DefaultOptimizer(), MeshConfig{Ranks: 2, SeqRanks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Step(NewCorpus(32, 2).NextBatch(3, 8)); err == nil {
		t.Error("batch not divisible by groups accepted")
	}
	if _, err := eng.Step(NewCorpus(32, 2).NextBatch(2, 7)); err == nil {
		t.Error("sequence not divisible by seq ranks accepted")
	}
}

// TestStepRejectsMalformedBatchOnEveryPreset: a batch the model cannot
// take — sequence past MaxSeq, token/target slices shorter than
// BatchSize×Seq, no rows, rows not divisible by R — comes back from
// Step/StepAccum as an error on every shape preset, the single-rank one
// (which used to panic in nn and tensor) and the data-parallel one (which
// used to panic inside a rank goroutine) included, and leaves the engine
// usable. MeshConfig.PipeRanks is honoured by InitMesh itself.
func TestStepRejectsMalformedBatchOnEveryPreset(t *testing.T) {
	newModel := func() *Model {
		m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Heads: 4, Vocab: 32, MaxSeq: 8}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	presets := map[string]func() (*Engine, error){
		"init": func() (*Engine, error) { return Init(newModel(), DefaultOptimizer()) },
		"dp":   func() (*Engine, error) { return InitDP(newModel(), DefaultOptimizer(), DPConfig{Ranks: 2}) },
		"sp":   func() (*Engine, error) { return InitSP(newModel(), DefaultOptimizer(), SPConfig{SeqRanks: 2}) },
		"mesh": func() (*Engine, error) {
			return InitMesh(newModel(), DefaultOptimizer(), MeshConfig{Ranks: 2, SeqRanks: 2})
		},
		"pipe": func() (*Engine, error) {
			return InitPipe(newModel(), DefaultOptimizer(), MeshConfig{Ranks: 2, PipeRanks: 2})
		},
		"mesh-with-pipe-ranks": func() (*Engine, error) {
			return InitMesh(newModel(), DefaultOptimizer(), MeshConfig{Ranks: 2, PipeRanks: 2})
		},
	}
	for name, build := range presets {
		t.Run(name, func(t *testing.T) {
			eng, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if name == "mesh-with-pipe-ranks" && eng.PipeRanks() != 2 {
				t.Fatalf("InitMesh dropped PipeRanks: P=%d", eng.PipeRanks())
			}
			corpus := NewCorpus(32, 2)
			if _, err := eng.Step(corpus.NextBatch(2, 16)); err == nil {
				t.Error("sequence exceeding MaxSeq accepted")
			}
			short := corpus.NextBatch(2, 8)
			short.Targets = short.Targets[:len(short.Targets)-1]
			if _, err := eng.Step(short); err == nil {
				t.Error("batch with too few targets accepted")
			}
			if _, err := eng.StepAccum([]Batch{corpus.NextBatch(2, 8), short}); err == nil {
				t.Error("accumulation window with a malformed batch accepted")
			}
			if _, err := eng.Step(Batch{Seq: 8}); err == nil {
				t.Error("batch with no rows accepted")
			}
			if eng.Ranks() > 1 {
				if _, err := eng.Step(corpus.NextBatch(3, 8)); err == nil {
					t.Error("rows not divisible by the data-parallel degree accepted")
				}
			}
			if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Errorf("engine unusable after rejected batches: %v", err)
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlacementFacade asserts the end-to-end placement contract through
// the public surface, across all four engines at the acceptance shapes
// (single rank, R=2, S=2, R×S=2×2): every placement mode — all-GPU,
// all-CPU, auto — trains bit-identically to the homogeneous engine,
// reports virtual-clock telemetry, and the auto split composes with the
// nvme backend into a three-tier plan.
func TestPlacementFacade(t *testing.T) {
	const steps = 10
	type result struct {
		losses []float64
		stats  Stats
		tel    PlacementTelemetry
		hasTel bool
	}
	train := func(t *testing.T, engineKind string, pc PlacementConfig, backend string) result {
		t.Helper()
		m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Heads: 4, Vocab: 64, MaxSeq: 16}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultOptimizer()
		cfg.BucketElems = 4000
		cfg.Placement = pc
		if backend != "" {
			cfg.Offload = OffloadConfig{Backend: backend, Dir: t.TempDir()}
		}
		var eng interface {
			Step(Batch) (float64, error)
			Flush() error
			Stats() Stats
			PlacementTelemetry() (PlacementTelemetry, bool)
			Close() error
		}
		switch engineKind {
		case "single":
			eng, err = Init(m, cfg)
		case "dp":
			eng, err = InitDP(m, cfg, DPConfig{Ranks: 2})
		case "sp":
			eng, err = InitSP(m, cfg, SPConfig{SeqRanks: 2})
		case "mesh":
			eng, err = InitMesh(m, cfg, MeshConfig{Ranks: 2, SeqRanks: 2})
		}
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if cerr := eng.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		}()
		corpus := NewCorpus(64, 2)
		var r result
		for i := 0; i < steps; i++ {
			loss, err := eng.Step(corpus.NextBatch(4, 16))
			if err != nil {
				t.Fatal(err)
			}
			r.losses = append(r.losses, loss)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		r.stats = eng.Stats()
		r.tel, r.hasTel = eng.PlacementTelemetry()
		return r
	}

	for _, kind := range []string{"single", "dp", "sp", "mesh"} {
		t.Run(kind, func(t *testing.T) {
			ref := train(t, kind, PlacementConfig{}, "")
			if ref.hasTel {
				t.Fatal("homogeneous engine reported placement telemetry")
			}
			for _, mode := range []string{"cpu", "gpu", "auto"} {
				got := train(t, kind, PlacementConfig{Mode: mode, Batch: 4, Seq: 16}, "")
				if !got.hasTel || got.tel.Steps != steps {
					t.Fatalf("%s: telemetry missing or short: %+v", mode, got.tel)
				}
				if got.tel.PipelinedSeconds <= 0 || got.tel.PipelinedSeconds > got.tel.SerializedSeconds {
					t.Fatalf("%s: bad modeled times %+v", mode, got.tel)
				}
				for i := range ref.losses {
					if got.losses[i] != ref.losses[i] {
						t.Fatalf("%s: loss diverged at step %d: %v vs %v", mode, i, got.losses[i], ref.losses[i])
					}
				}
				if got.stats != ref.stats {
					t.Fatalf("%s: stats diverged: %+v vs %+v", mode, got.stats, ref.stats)
				}
			}
		})
	}

	// auto + nvme composes into a three-tier plan: the offloaded body
	// spills through the placed store, still bit-identical.
	ref := train(t, "single", PlacementConfig{}, "")
	mixed := train(t, "single", PlacementConfig{Mode: "auto", GPUBuckets: 2, Batch: 4, Seq: 16}, "nvme")
	for i := range ref.losses {
		if mixed.losses[i] != ref.losses[i] {
			t.Fatalf("nvme-bodied placement diverged at step %d", i)
		}
	}
	if mixed.tel.Tiers[2].Buckets == 0 {
		t.Fatalf("nvme backend left no buckets on the flash tier: %+v", mixed.tel.Tiers)
	}
	if mixed.tel.Tiers[0].Buckets != 2 {
		t.Fatalf("pinned tail not honored: %+v", mixed.tel.Tiers)
	}

	// Unknown placement modes are rejected by every constructor.
	m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Heads: 4, Vocab: 64, MaxSeq: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptimizer()
	bad.Placement = PlacementConfig{Mode: "hbm"}
	if _, err := Init(m, bad); err == nil {
		t.Fatal("unknown placement mode accepted by Init")
	}
	if _, err := InitDP(m, bad, DPConfig{Ranks: 2}); err == nil {
		t.Fatal("unknown placement mode accepted by InitDP")
	}
}

// TestDescribePlacementFacade pins the superplan -emit-placement path:
// the 5B plan retains a GPU tail and renders usable supertrain flags.
func TestDescribePlacementFacade(t *testing.T) {
	p, err := DescribePlacement(PlanRequest{Model: "5B", Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.GPUBuckets < 1 || p.GPUBuckets > p.NBuckets {
		t.Fatalf("placement %+v out of bounds", p)
	}
	want := fmt.Sprintf("-placement auto -gpu-buckets %d", p.GPUBuckets)
	if p.Flags != want {
		t.Fatalf("flags = %q, want %q", p.Flags, want)
	}
	if p.Plan == "" {
		t.Fatal("empty plan census")
	}
	if _, err := DescribePlacement(PlanRequest{Model: "no-such"}); err == nil {
		t.Fatal("unknown model accepted")
	}
}
