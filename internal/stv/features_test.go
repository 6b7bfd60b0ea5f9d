package stv_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"superoffload/internal/data"
	"superoffload/internal/obs"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
)

// TestAccumulationMatchesLargeBatch: two accumulated micro-batches must
// produce (numerically) the same update as the concatenated batch.
func TestAccumulationMatchesLargeBatch(t *testing.T) {
	corpus := data.NewCorpus(64, 5)
	a := corpus.NextBatch(1, 8)
	b := corpus.NextBatch(1, 8)
	combined := data.Batch{
		Tokens:    append(append([]int{}, a.Tokens...), b.Tokens...),
		Targets:   append(append([]int{}, a.Targets...), b.Targets...),
		BatchSize: 2, Seq: 8,
	}

	mk := func() *engine {
		cfg := trainerConfig(stv.STV)
		cfg.ClipNorm = 0 // isolate accumulation from clipping
		return newEngine(tinyGPT(42), cfg)
	}
	accum := mk()
	if _, err := accum.StepAccum([]data.Batch{a, b}); err != nil {
		t.Fatal(err)
	}
	if _, err := accum.Flush(); err != nil {
		t.Fatal(err)
	}
	big := mk()
	if _, err := big.Step(combined); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Flush(); err != nil {
		t.Fatal(err)
	}
	wa, wb := accum.MasterWeights(), big.MasterWeights()
	var maxDiff float64
	for i := range wa {
		if d := math.Abs(float64(wa[i] - wb[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Errorf("accumulated update diverges from combined batch: max diff %g", maxDiff)
	}
}

func TestAccumSTVMatchesAccumSTE(t *testing.T) {
	corpus := data.NewCorpus(64, 9)
	var windows [][]data.Batch
	for i := 0; i < 8; i++ {
		windows = append(windows, []data.Batch{corpus.NextBatch(1, 8), corpus.NextBatch(1, 8)})
	}
	run := func(mode stv.Mode) []float32 {
		tr := newEngine(tinyGPT(7), trainerConfig(mode))
		for _, w := range windows {
			if _, err := tr.StepAccum(w); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return tr.MasterWeights()
	}
	a, b := run(stv.STV), run(stv.STE)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("accumulated STV diverges from STE at %d", i)
		}
	}
}

func TestStepAccumSingleBatchEqualsStep(t *testing.T) {
	corpus := data.NewCorpus(64, 3)
	b := corpus.NextBatch(2, 8)
	t1 := newEngine(tinyGPT(5), trainerConfig(stv.STV))
	t2 := newEngine(tinyGPT(5), trainerConfig(stv.STV))
	if _, err := t1.Step(b); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.StepAccum([]data.Batch{b}); err != nil {
		t.Fatal(err)
	}
	t1.Flush()
	t2.Flush()
	wa, wb := t1.MasterWeights(), t2.MasterWeights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("StepAccum([b]) != Step(b) at %d", i)
		}
	}
}

// TestStepAccumSpans: a traced accumulation window of M micro-batches
// accounts for itself on the "trainer" track under both schedules — M
// backward spans, M forward spans plus one per redo, one speculate span,
// and at least one resolve — so the per-phase ledger folded from a trace
// (bench/trace.go sums these spans by name) is as complete for StepAccum
// as for Step. The rank's other ops (reduce, report) are the only
// other spans there.
func TestStepAccumSpans(t *testing.T) {
	const micros = 3
	for _, mode := range []stv.Mode{stv.STE, stv.STV} {
		tracer := obs.NewTracer()
		cfg := trainerConfig(mode)
		cfg.Tracer = tracer
		tr := newEngine(tinyGPT(5), cfg)
		corpus := data.NewCorpus(64, 3)
		window := func() []data.Batch {
			w := make([]data.Batch, micros)
			for i := range w {
				w[i] = corpus.NextBatch(1, 8)
			}
			return w
		}
		// The first window leaves a verdict pending under STV, so
		// the measured one resolves a real verdict.
		if _, err := tr.StepAccum(window()); err != nil {
			t.Fatal(err)
		}
		seen, redos := tracer.Len(), tr.Stats().Redos
		if _, err := tr.StepAccum(window()); err != nil {
			t.Fatal(err)
		}
		redos = tr.Stats().Redos - redos
		trainerTid := 0
		for _, e := range tracer.Events() {
			if e.Ph == "M" && e.Args["name"] == "trainer" {
				trainerTid = e.Tid
			}
		}
		spans := map[string]int{}
		for _, e := range tracer.EventsSince(seen) {
			if e.Ph == "X" && e.Tid == trainerTid {
				spans[e.Name]++
			}
		}
		for name := range spans {
			if !slices.Contains([]string{"forward", "backward", "resolve", "speculate", "reduce", "report"}, name) {
				t.Errorf("%v: the trainer track has a %q span", mode, name)
			}
		}
		if spans["backward"] != micros || spans["forward"] != micros+redos ||
			spans["speculate"] != 1 || spans["resolve"] < 1 {
			t.Errorf("%v: window of %d with %d redo(s) traced %v", mode, micros, redos, spans)
		}
	}
}

func TestWarmupCosineSchedule(t *testing.T) {
	s := stv.WarmupCosine(100, 1000, 0.1)
	if s(0) <= 0 || s(0) > 0.02 {
		t.Errorf("warm-up start = %v", s(0))
	}
	if math.Abs(s(99)-1.0) > 1e-9 {
		t.Errorf("end of warm-up = %v, want 1.0", s(99))
	}
	if s(550) >= s(100) {
		t.Error("cosine should decay after warm-up")
	}
	if got := s(2000); got != 0.1 {
		t.Errorf("beyond total = %v, want min fraction", got)
	}
	// Monotone decay after warm-up.
	prev := s(100)
	for step := 150; step < 1000; step += 50 {
		cur := s(step)
		if cur > prev+1e-12 {
			t.Errorf("schedule increased at %d: %v > %v", step, cur, prev)
		}
		prev = cur
	}
}

func TestScheduledSTVMatchesScheduledSTE(t *testing.T) {
	// Exactness must survive a moving learning rate, including clip
	// re-execution with the step's own rate.
	corpus := data.NewCorpus(64, 17)
	var batches []data.Batch
	for i := 0; i < 20; i++ {
		batches = append(batches, corpus.NextBatch(2, 8))
	}
	run := func(mode stv.Mode) []float32 {
		cfg := trainerConfig(mode)
		cfg.ClipNorm = 2.5 // force some clip rollbacks
		cfg.Schedule = stv.WarmupCosine(5, 20, 0.1)
		tr := newEngine(tinyGPT(21), cfg)
		for _, b := range batches {
			if _, err := tr.Step(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if tr.Stats().ClipRolls == 0 {
			t.Fatal("test needs clip events to be meaningful")
		}
		return tr.MasterWeights()
	}
	a, b := run(stv.STV), run(stv.STE)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scheduled STV diverges from STE at %d", i)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	corpus := data.NewCorpus(64, 23)
	cfg := trainerConfig(stv.STV)
	cfg.Scaler = optim.NewLossScaler()
	tr := newEngine(tinyGPT(31), cfg)
	for i := 0; i < 10; i++ {
		if _, err := tr.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// Restore into a fresh trainer over the same architecture.
	cfg2 := trainerConfig(stv.STV)
	cfg2.Scaler = optim.NewLossScaler()
	tr2 := newEngine(tinyGPT(999), cfg2) // different init — must be overwritten
	if err := tr2.Load(bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if tr2.StepIndex() != tr.StepIndex() {
		t.Errorf("step index %d != %d", tr2.StepIndex(), tr.StepIndex())
	}
	wa, wb := tr.MasterWeights(), tr2.MasterWeights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("restored master differs at %d", i)
		}
	}
	// Continue training both on identical data: must stay bit-exact.
	cont := data.NewCorpus(64, 77)
	cont2 := data.NewCorpus(64, 77)
	for i := 0; i < 5; i++ {
		if _, err := tr.Step(cont.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
		if _, err := tr2.Step(cont2.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	tr2.Flush()
	wa, wb = tr.MasterWeights(), tr2.MasterWeights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("post-restore training diverges at %d", i)
		}
	}
}

func TestCheckpointErrors(t *testing.T) {
	tr := newEngine(tinyGPT(1), trainerConfig(stv.STV))
	corpus := data.NewCorpus(64, 2)
	if _, err := tr.Step(corpus.NextBatch(1, 8)); err != nil {
		t.Fatal(err)
	}
	// A pending verdict blocks Save.
	var buf bytes.Buffer
	if err := tr.Save(&buf); err == nil {
		t.Error("Save with pending validation should fail")
	}
	tr.Flush()
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The previous format's magic: refused, naming both magics.
	bad := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint32(bad, 0x53_4F_43_32) // "SOC2"
	if err := tr.Load(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "0x534f4332") || !strings.Contains(err.Error(), "0x534f4333") {
		t.Errorf("SOC2 checkpoint: error %v, want one naming both magics", err)
	}
	// Mismatched architecture.
	other := newEngine(tinyGPT(1), config{Config: stv.Config{Adam: optim.DefaultConfig(), BucketElems: 1 << 30, Mode: stv.STE}})
	if err := other.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("bucket-count mismatch accepted")
	}
}
