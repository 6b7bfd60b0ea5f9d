package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The suite is the whole benchmark in one command: for every workload
// an untraced child then a traced child, one after the other, never two
// at once. Each child is this same binary run the way the driver runs
// it, so peak RSS, GC state and the matmul pool are per run.

// perRunBudgetS is one run's share of what the driver allows for all of
// them: 3420 s for 4 + 22 x 6 runs.
const perRunBudgetS = 3420.0 / (4 + 22*6)

// maxRunS is the driver's cap on any single run.
const maxRunS = 180.0

// header records where a set of results was measured.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newHeader() header {
	commit := os.Getenv("BENCH_COMMIT") // set by run.sh; a checkout need not be a git repository
	if commit == "" {
		commit = "unknown"
	}
	return header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH: runtime.GOARCH, GoVersion: runtime.Version(), Commit: commit,
	}
}

func (h header) String() string {
	return fmt.Sprintf("bench: nproc=%d GOMAXPROCS=%d GOARCH=%s %s commit=%s",
		h.NProc, h.GOMAXPROCS, h.GOARCH, h.GoVersion, h.Commit)
}

// suiteResults is the file a suite run leaves in bench/out/ and
// -compare reads.
type suiteResults struct {
	Header    header                     `json:"header"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Steps     int                        `json:"steps"`
	WallS     float64                    `json:"wall_s"`
	Workloads map[string]workloadResults `json:"workloads"`
}

// workloadResults is one workload's passes: the untraced one as many
// times as -runs asked for, the traced one once.
type workloadResults struct {
	Untraced []result `json:"untraced"`
	Traced   result   `json:"traced"`
}

// suiteConfig is what the suite passes down to every child.
type suiteConfig struct {
	seed    uint64
	seconds float64
	steps   int
	quick   bool
	runs    int
	dir     string
	out     string
}

// childArgs are the flags of one (workload, pass) child.
func (sc suiteConfig) childArgs(w workload, trace int) []string {
	args := []string{
		"-workload", w.name,
		"-seed", strconv.FormatUint(sc.seed, 10),
		"-seconds", strconv.FormatFloat(sc.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-steps", strconv.Itoa(sc.steps),
		"-dir", sc.dir, "-out", sc.out,
	}
	if sc.quick {
		args = append(args, "-quick")
	}
	return args
}

// runChild runs one child to completion and parses its result line.
// The child's own log is passed through, indented.
func runChild(exe string, args []string, log io.Writer) (result, float64, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	wallS := time.Since(t0).Seconds()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintf(log, "    %s\n", l)
	}
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return result{}, wallS, fmt.Errorf("child %v: %w", args, err)
		}
		return result{}, wallS, fmt.Errorf("child %v: no result line: %w", args, jerr)
	}
	// A child that printed a result but exited non-zero failed
	// operations; the result says how many.
	return res, wallS, nil
}

// runSuite runs every workload's passes and writes the results file.
// It returns the process's exit code.
func runSuite(sc suiteConfig, log io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	start := time.Now()
	res := suiteResults{
		Header: newHeader(), Seed: sc.seed, Seconds: sc.seconds, Steps: sc.steps,
		Workloads: map[string]workloadResults{},
	}

	// One untimed priming child: the first process on a cold machine
	// pays for page cache and clock ramp-up that no workload should.
	prime := sc
	prime.quick, prime.steps = true, 10
	if _, _, err := runChild(exe, prime.childArgs(workloads[0], 0), io.Discard); err != nil {
		fmt.Fprintf(os.Stderr, "bench: priming run: %v\n", err)
		return 1
	}

	var children int
	var childS, slowestS float64
	failed := 0
	for _, w := range workloads {
		var wr workloadResults
		for trace := 0; trace <= 1; trace++ {
			runs := 1
			if trace == 0 {
				runs = sc.runs
			}
			for i := 0; i < runs; i++ {
				fmt.Fprintf(log, "%s --trace %d\n", w.name, trace)
				r, wallS, err := runChild(exe, sc.childArgs(w, trace), log)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				children++
				childS += wallS
				slowestS = max(slowestS, wallS)
				failed += r.Failed
				fmt.Fprintf(log, "    ops_attempted=%d ops_failed=%d wall=%.1fs\n", r.Attempted, r.Failed, wallS)
				if trace == 0 {
					wr.Untraced = append(wr.Untraced, r)
				} else {
					wr.Traced = r
				}
			}
		}
		res.Workloads[w.name] = wr
	}
	res.WallS = time.Since(start).Seconds()

	printSuite(log, res)
	path := filepath.Join(sc.out, "results.json")
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(log, "results: %s\n", path)

	meanS := childS / float64(children)
	fmt.Fprintf(log, "wall: %.0f s for %d runs, mean %.1f s (budget %.1f s), slowest %.1f s (cap %.0f s)\n",
		res.WallS, children, meanS, perRunBudgetS, slowestS, maxRunS)
	switch {
	case failed > 0:
		fmt.Fprintf(log, "FAILED: %d operations failed\n", failed)
		return 1
	case !sc.quick && (meanS > perRunBudgetS || slowestS > maxRunS):
		fmt.Fprintf(log, "FAILED: over the time budget; lower run_seconds, do not drop a workload\n")
		return 1
	}
	return 0
}

// printSuite prints every metric of every workload by name with its
// unit, end-to-end first.
func printSuite(log io.Writer, res suiteResults) {
	cell := func(r result, name string) string {
		m, ok := r.Metrics[name]
		if !ok {
			return fmt.Sprintf("%13s", "-")
		}
		return fmt.Sprintf("%13.5g", m.Value)
	}
	row := func(s spec, pick func(workloadResults) result) {
		fmt.Fprintf(log, "%-34s %-8s", s.name, s.unit)
		for _, w := range workloads {
			fmt.Fprint(log, cell(pick(res.Workloads[w.name]), s.name))
		}
		fmt.Fprintln(log)
	}
	fmt.Fprintf(log, "\n%-34s %-8s", "metric", "unit")
	for _, w := range workloads {
		fmt.Fprintf(log, "%13s", w.name)
	}
	fmt.Fprintln(log)
	for _, s := range endToEnd {
		row(s, func(wr workloadResults) result { return medianResult(wr.Untraced) })
	}
	for _, s := range perLayer {
		row(s, func(wr workloadResults) result { return wr.Traced })
	}
	// The tracer's cost is the one number that needs both passes.
	fmt.Fprintf(log, "%-34s %-8s", "obs.trace_overhead_ratio (derived)", "ratio")
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		traced := wr.Traced.Metrics["obs.traced_step_ms_p50"].Value
		fmt.Fprintf(log, "%13.5g", ratio(traced, medianResult(wr.Untraced).Metrics["step_ms_p50"].Value))
	}
	fmt.Fprintln(log)
}

// medianResult folds repeated untraced runs into one result holding
// each metric's median.
func medianResult(runs []result) result {
	if len(runs) == 0 {
		return result{}
	}
	out := result{Correct: true, Metrics: map[string]metric{}}
	for name, m := range runs[0].Metrics {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.Metrics[name].Value)
		}
		out.Metrics[name] = metric{Value: median(xs), Unit: m.Unit}
	}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	return out
}

// writeJSON writes v, indented, to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
