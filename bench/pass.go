package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"superoffload"
	"superoffload/internal/data"
	"superoffload/internal/obs"
	"superoffload/internal/tensor"
)

// passConfig is one (workload, pass) run: what the driver's four flags
// select, plus where the run may write.
type passConfig struct {
	w       workload
	seed    uint64
	seconds float64 // length of the timed loop
	steps   int     // > 0: run exactly this many timed steps instead
	trace   bool    // the traced pass: per-layer metrics, no end-to-end ones
	quick   bool    // self-test sizing: one set-up, short probes
	dir     string  // scratch root for flash files; a fresh subdirectory is used and removed
	out     string  // where the traced pass writes <workload>.trace.json
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a pass hands back: the result line, and the loss
// trajectory behind it for the tests that compare seeds.
type report struct {
	result
	losses []float64 // the measured engine's loss at every step, warm-up included
}

// result is the line a pass prints last: the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times the untraced pass sets up (model,
// engine, stores, warm-up) to report the median as setup_s; the first
// one is the engine that gets measured.
const setupRepeats = 3

// A timing window is 1/timedWindows of the timed loop's steps;
// minTimedSteps gives a window a few steps when --seconds is tiny.
const (
	timedWindows  = 5
	minTimedSteps = 4 * timedWindows
)

// session is one built and warmed-up engine with the inputs and losses
// it has seen so far.
type session struct {
	eng    engine
	corpus *data.Corpus
	inputs [][]superoffload.Batch // the first oracleSteps steps' inputs
	losses []float64              // one per step taken, warm-up included
	initS  float64                // NewModel + InitX
	warmS  float64                // the warm-up steps
}

// pass carries the state of one run.
type pass struct {
	pc        passConfig
	log       io.Writer
	tracer    *superoffload.Tracer
	bench     *obs.Track // the benchmark's own track on the program's tracer; nil untraced
	attempted int
	failures  []string
	// oracleSteps is how many leading steps the oracle checks.
	oracleSteps int
	losses      []float64 // the measured session's, kept for the report
}

// fail records one failed operation.
func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// runPass runs one (workload, pass) and returns its result line. The
// error is for what stops the benchmark itself (no scratch directory);
// what the program under test gets wrong is counted in result.Failed.
func runPass(pc passConfig, log io.Writer) (report, error) {
	p := &pass{pc: pc, log: log, oracleSteps: oracleSteps}
	if pc.quick {
		p.oracleSteps = warmupSteps + 2
	}
	if err := os.MkdirAll(pc.dir, 0o755); err != nil {
		return report{}, fmt.Errorf("scratch directory: %w", err)
	}
	scratch, err := os.MkdirTemp(pc.dir, pc.w.name+"-*")
	if err != nil {
		return report{}, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(scratch)

	// Start the matmul band pool now: its workers are process-wide and
	// never exit, so they must not count as goroutines an engine leaked.
	primeKernelPool()

	metrics := ledger{}
	if pc.trace {
		err = p.traced(scratch, metrics)
	} else {
		err = p.untraced(scratch, metrics)
	}
	if err != nil {
		return report{}, err
	}
	for _, f := range p.failures {
		fmt.Fprintf(log, "FAILED: %s\n", f)
	}
	res := result{
		Correct:   len(p.failures) == 0,
		Attempted: p.attempted,
		Failed:    len(p.failures),
		Metrics:   metrics,
	}
	// One step can fail twice, on its own and against the oracle; the
	// result line counts operations.
	res.Failed = min(res.Failed, res.Attempted)
	return report{result: res, losses: p.losses}, nil
}

// primeKernelPool runs one product large enough to start tensor's
// shared worker pool.
func primeKernelPool() {
	a, b := tensor.New(128, 128), tensor.New(128, 128)
	tensor.MatMulInto(tensor.New(128, 128), a, b)
}

// setup builds the model and engine and runs the warm-up steps: what a
// supertrain user waits for before the first useful step.
func (p *pass) setup(dir string) (*session, error) {
	w := p.pc.w
	for _, sub := range []string{"state", "act"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("scratch directory: %w", err)
		}
	}
	t0 := time.Now()
	sp := p.bench.Begin("init")
	m, err := superoffload.NewModel(modelShape, p.pc.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: NewModel: %w", w.name, err)
	}
	eng, err := w.newEngine(m, w.optimizer(dir, p.tracer))
	if err != nil {
		return nil, fmt.Errorf("%s: init: %w", w.name, err)
	}
	sp.End()
	s := &session{eng: eng, corpus: superoffload.NewCorpus(modelShape.Vocab, p.pc.seed+1)}
	s.initS = time.Since(t0).Seconds()

	t1 := time.Now()
	sp = p.bench.Begin("warmup")
	for i := 0; i < warmupSteps; i++ {
		p.step(s)
	}
	sp.End()
	s.warmS = time.Since(t1).Seconds()
	return s, nil
}

// step draws the next input, runs one optimizer step and checks what it
// returned. It reports the wall time of the step and of drawing its
// input.
func (p *pass) step(s *session) (stepS, nextS float64) {
	idx := len(s.losses)
	t0 := time.Now()
	sp := p.bench.Begin("next_batch")
	in := p.pc.w.nextInput(s.corpus)
	sp.End()
	nextS = time.Since(t0).Seconds()
	if idx < p.oracleSteps {
		s.inputs = append(s.inputs, in)
	}
	t1 := time.Now()
	sp = p.bench.Begin("step")
	loss, err := step(s.eng, in)
	sp.EndInt("step", idx)
	stepS = time.Since(t1).Seconds()
	s.losses = append(s.losses, loss)
	p.attempted++
	switch {
	case err != nil:
		p.fail("step %d: %v", idx, err)
	case math.IsNaN(loss) || math.IsInf(loss, 0):
		p.fail("step %d: loss %v is not finite", idx, loss)
	}
	return stepS, nextS
}

// timedLoop runs steps until the pass's time (or step count) is used
// up, calling each after every step with its index in the loop.
func (p *pass) timedLoop(s *session, seconds float64, each func(i int, stepS, nextS float64)) (steps int, wallS float64) {
	t0 := time.Now()
	for {
		if p.pc.steps > 0 {
			if steps >= p.pc.steps {
				break
			}
		} else if steps >= minTimedSteps && time.Since(t0).Seconds() >= seconds {
			break
		}
		stepS, nextS := p.step(s)
		each(steps, stepS, nextS)
		steps++
	}
	return steps, time.Since(t0).Seconds()
}

// finish flushes, does the checkpoint round trip, and closes the
// engine: two operations (round trip, Close) on top of the steps.
// baseline is the goroutine count from before the engine was built.
func (p *pass) finish(s *session, baseline int) (ft finishTimes) {
	p.losses = s.losses
	t0 := time.Now()
	sp := p.bench.Begin("flush")
	err := s.eng.Flush()
	sp.End()
	ft.flushS = time.Since(t0).Seconds()

	p.attempted++
	if err != nil {
		p.fail("flush: %v", err)
	} else if msg := p.roundTrip(s.eng, &ft); msg != "" {
		p.fail("checkpoint: %s", msg)
	}

	p.attempted++
	t0 = time.Now()
	sp = p.bench.Begin("close")
	err = s.eng.Close()
	sp.End()
	ft.closeS = time.Since(t0).Seconds()
	ft.leaked = leakedGoroutines(baseline)
	if err != nil {
		p.fail("close: %v", err)
	} else if ft.leaked > 0 {
		p.fail("close: %d goroutines still running", ft.leaked)
	}
	return ft
}

// finishTimes is what finish measured, for the facade.* and stv.* rows.
type finishTimes struct {
	flushS, saveS, loadS, closeS float64
	ckptBytes                    int
	leaked                       int
}

// roundTrip checks Save → Load → Save reproduces the checkpoint byte
// for byte. It returns a description of what went wrong, or "".
func (p *pass) roundTrip(e engine, ft *finishTimes) string {
	var first, second bytes.Buffer
	t0 := time.Now()
	sp := p.bench.Begin("save")
	err := e.Save(&first)
	sp.End()
	ft.saveS = time.Since(t0).Seconds()
	ft.ckptBytes = first.Len()
	if err != nil {
		return fmt.Sprintf("save: %v", err)
	}
	t0 = time.Now()
	sp = p.bench.Begin("load")
	err = e.Load(bytes.NewReader(first.Bytes()))
	sp.End()
	ft.loadS = time.Since(t0).Seconds()
	if err != nil {
		return fmt.Sprintf("load: %v", err)
	}
	if err := e.Save(&second); err != nil {
		return fmt.Sprintf("second save: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return fmt.Sprintf("save/load/save differs (%d vs %d bytes)", first.Len(), second.Len())
	}
	return ""
}

// leakedGoroutines waits briefly for goroutines that are on their way
// out, then reports how many more there are than at baseline.
func leakedGoroutines(baseline int) int {
	deadline := time.Now().Add(200 * time.Millisecond)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// oracle trains the plain single-worker reference on the session's
// first inputs and requires the same loss at every step, bit for bit:
// no engine, store or placement may change the arithmetic. A mismatch
// is a failure of that step.
func (p *pass) oracle(s *session) error {
	w := p.pc.w
	m, err := superoffload.NewModel(modelShape, p.pc.seed)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	ref, err := superoffload.Init(m, w.referenceOptimizer())
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	defer ref.Close()
	for i, in := range s.inputs {
		want, err := step(ref, w.referenceInput(in))
		if err != nil {
			return fmt.Errorf("reference step %d: %w", i, err)
		}
		if got := s.losses[i]; got != want {
			p.fail("step %d: loss %v differs from the reference trajectory's %v", i, got, want)
		}
	}
	fmt.Fprintf(p.log, "oracle: %d steps checked against the single-worker reference\n", len(s.inputs))
	return nil
}

// untraced is the pass the end-to-end metrics come from.
func (p *pass) untraced(scratch string, out ledger) error {
	w := p.pc.w
	repeats := setupRepeats
	if p.pc.quick {
		repeats = 1
	}
	// The engine that gets measured is the first thing the process
	// builds, as in a real supertrain run, so peak_rss_mb is one run's
	// footprint from a fresh heap.
	baseline := runtime.NumGoroutine()
	t0 := time.Now()
	s, err := p.setup(filepath.Join(scratch, "0"))
	if err != nil {
		return err
	}
	setups := []float64{time.Since(t0).Seconds()}

	// Allocation is read after every step and reported as the median
	// step's: a clip rollback allocates ~50x a committing step, and how
	// many of them fall inside the window depends on the seed.
	var stepS, nextS, allocKB []float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc
	steps, wallS := p.timedLoop(s, p.pc.seconds, func(_ int, d, n float64) {
		stepS, nextS = append(stepS, d), append(nextS, n)
		runtime.ReadMemStats(&ms)
		allocKB = append(allocKB, float64(ms.TotalAlloc-allocated)/1024)
		allocated = ms.TotalAlloc
	})

	p.finish(s, baseline)
	peakMB := peakRSSMB()
	if err := p.oracle(s); err != nil {
		return err
	}

	// The other set-ups exist only to be timed, so that setup_s is a
	// median; each is torn down again at once.
	for i := 1; i < repeats; i++ {
		t0 := time.Now()
		extra, err := p.setup(filepath.Join(scratch, strconv.Itoa(i)))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := extra.eng.Flush(); err != nil {
			return fmt.Errorf("%s: flush after set-up: %w", w.name, err)
		}
		if err := extra.eng.Close(); err != nil {
			return fmt.Errorf("%s: close after set-up: %w", w.name, err)
		}
	}

	// Other tenants of the host slow this machine down in bursts a few
	// seconds long, and only ever down. So each timing is taken over
	// every window of a fifth of the loop's steps — a window starts at
	// every step — and the best window is reported: the program's speed
	// when left alone. Two suites of the same code, minutes apart,
	// differed by 29% in mesh-2x2's median window and by 5% in its best.
	width := steps / timedWindows
	bestP50, bestP90, bestTokS := math.Inf(1), math.Inf(1), 0.0
	win := make([]float64, width)
	for lo := 0; lo+width <= steps; lo++ {
		copy(win, stepS[lo:lo+width])
		sort.Float64s(win)
		bestP50, bestP90 = min(bestP50, quantile(win, 0.5)), min(bestP90, quantile(win, 0.9))
		var wall float64
		for j := lo; j < lo+width; j++ {
			wall += nextS[j] + stepS[j]
		}
		bestTokS = max(bestTokS, float64(width*w.tokensPerStep())/wall)
	}
	sort.Float64s(stepS)
	fmt.Fprintf(p.log, "%s: %d timed steps in %.2f s, windows of %d steps; over all steps p50 %.1f ms, p90 %.1f ms; %d set-ups\n",
		w.name, steps, wallS, width, 1e3*quantile(stepS, 0.5), 1e3*quantile(stepS, 0.9), len(setups))
	out.put("step_ms_p50", 1e3*bestP50)
	out.put("step_ms_p90", 1e3*bestP90)
	out.put("tokens_per_s", bestTokS)
	out.put("setup_s", median(setups))
	out.put("peak_rss_mb", peakMB)
	out.put("alloc_kb_per_step", median(allocKB))
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB. Where
// /proc is missing it falls back to the Go runtime's own total.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// quantile returns the q-quantile of sorted xs by the nearest-rank
// rule; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
