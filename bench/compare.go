package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles reads two suite results files and prints, for every
// workload and end-to-end metric, both medians, how much worse B is
// than A, the metric's bound, and a verdict; then every exact or
// simulated per-layer metric that differs. It returns the exit code: 1
// if anything regressed, differs, or failed.
func compareFiles(pathA, pathB string, log io.Writer) int {
	a, err := readResults(pathA)
	if err == nil {
		var b suiteResults
		if b, err = readResults(pathB); err == nil {
			return compare(a, b, log)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func readResults(path string) (suiteResults, error) {
	var r suiteResults
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares B's runs against A's for one metric. worse is the
// share of A's median by which B's median is worse (negative: better).
// A metric whose run-to-run spread on either side is wider than its
// bound cannot be called unchanged: it is unresolved.
func judge(s spec, a, b []float64) (medA, medB, worse, spread float64, verdict string) {
	medA, medB = median(a), median(b)
	worse = ratio(medB-medA, medA)
	if s.better == "higher" {
		worse = -worse
	}
	spread = max(relSpread(a), relSpread(b))
	switch {
	case worse > s.bound:
		verdict = verdictRegressed
	case spread > s.bound:
		verdict = verdictUnresolved
	default:
		verdict = verdictOK
	}
	return
}

// relSpread is the run-to-run spread of xs as a share of their median:
// the distance between the quartiles from four runs up, the whole range
// below that, 0 for a single run (nothing to tell).
func relSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch {
	case len(s) < 2:
		return 0
	case len(s) < 4:
		return ratio(s[len(s)-1]-s[0], median(s))
	}
	q1, q3 := quartiles(s)
	return ratio(q3-q1, median(s))
}

// quartiles returns the first and third quartile of sorted xs (at least
// two of them) the way Python's statistics.quantiles(xs, n=4) does, the
// rule the driver applies to this benchmark's own runs.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

func compare(a, b suiteResults, log io.Writer) int {
	fmt.Fprintf(log, "A: %s seed=%d\nB: %s seed=%d\n\n", a.Header, a.Seed, b.Header, b.Seed)
	fmt.Fprintf(log, "%-14s %-18s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "spread", "verdict")
	bad := 0
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if len(ra.Untraced) == 0 || len(rb.Untraced) == 0 {
			fmt.Fprintf(log, "%-14s missing from one side\n", w.name)
			bad++
			continue
		}
		for _, s := range endToEnd {
			medA, medB, worse, spread, verdict := judge(s, values(ra.Untraced, s.name), values(rb.Untraced, s.name))
			fmt.Fprintf(log, "%-14s %-18s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				w.name, s.name, medA, medB, 100*worse, 100*s.bound, 100*spread, verdict)
			if verdict == verdictRegressed {
				bad++
			}
		}
		for _, side := range []workloadResults{ra, rb} {
			for _, r := range append(append([]result(nil), side.Untraced...), side.Traced) {
				if r.Failed > 0 || !r.Correct {
					fmt.Fprintf(log, "%-14s ops_failed=%d of %d\n", w.name, r.Failed, r.Attempted)
					bad++
				}
			}
		}
	}

	// Counts and simulated clocks repeat exactly when both sides ran the
	// same seed for the same number of steps; anything else is a change
	// in behaviour, not noise.
	fmt.Fprintf(log, "\nexact and simulated per-layer metrics:\n")
	for _, w := range workloads {
		ta, tb := a.Workloads[w.name].Traced, b.Workloads[w.name].Traced
		if a.Seed != b.Seed || ta.Attempted != tb.Attempted {
			fmt.Fprintf(log, "%-14s not comparable: seeds %d/%d, operations %d/%d (run both with the same -seed and -steps)\n",
				w.name, a.Seed, b.Seed, ta.Attempted, tb.Attempted)
			continue
		}
		differ := 0
		for _, s := range perLayer {
			if s.class == host {
				continue
			}
			if va, vb := ta.Metrics[s.name].Value, tb.Metrics[s.name].Value; va != vb {
				fmt.Fprintf(log, "%-14s %-34s %v != %v\n", w.name, s.name, va, vb)
				differ++
			}
		}
		if differ == 0 {
			fmt.Fprintf(log, "%-14s identical\n", w.name)
		}
		bad += differ
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// values collects one metric over repeated runs.
func values(runs []result, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[name].Value
	}
	return xs
}
