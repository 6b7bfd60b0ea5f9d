package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the root file the driver reads, as far as these
// tests need it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// unitSuffixes ties a metric name's suffix to the unit it must carry;
// a simulated time may say so in its unit.
var unitSuffixes = []struct {
	suffix string
	units  []string
}{
	{"_ms", []string{"ms", "sim_ms"}}, {"_ms_p50", []string{"ms"}}, {"_ms_p90", []string{"ms"}},
	{"_ms_per_step", []string{"ms", "sim_ms"}},
	{"_us", []string{"us"}}, {"_us_p50", []string{"us"}}, {"_us_p90", []string{"us"}},
	{"_s", []string{"s"}}, {"_mb", []string{"MB"}}, {"_mb_peak", []string{"MB"}},
	{"_mb_per_step", []string{"MB"}}, {"_mb_per_pass", []string{"MB"}},
	{"_kb_per_step", []string{"KB"}}, {"_mbps", []string{"MB/s"}}, {"_gbps", []string{"GB/s"}},
	{"_gflops", []string{"GFLOP/s"}}, {"_tflops", []string{"TFLOP/s"}}, {"_per_s", []string{"tok/s"}},
	{"_share", []string{"ratio"}}, {"_ratio", []string{"ratio"}}, {"_frac", []string{"ratio"}},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the Go
// catalogue from drifting apart in either direction.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if want := []string{"bash", "bench/run.sh"}; !slices.Equal(bj.Command, want) {
		t.Errorf("command = %v, want %v", bj.Command, want)
	}
	if want := []string{"bench"}; !slices.Equal(bj.Paths, want) {
		t.Errorf("paths = %v, want %v", bj.Paths, want)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d = %+v, want %s / %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []spec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s[%d] = %s %s %s, want %s %s %s", kind, i, g.Name, g.Unit, g.Better, s.name, s.unit, s.better)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != s.bound {
				t.Errorf("%s: bound in BENCHMARK.json does not match the catalogue's %v", s.name, s.bound)
			}
			if !metricName.MatchString(s.name) {
				t.Errorf("%s: not a valid metric name", s.name)
			}
			if s.better != "lower" && s.better != "higher" {
				t.Errorf("%s: better = %q", s.name, s.better)
			}
			// The longest matching suffix decides the unit.
			best := -1
			for j, us := range unitSuffixes {
				if strings.HasSuffix(s.name, us.suffix) && (best < 0 || len(us.suffix) > len(unitSuffixes[best].suffix)) {
					best = j
				}
			}
			if best >= 0 && !slices.Contains(unitSuffixes[best].units, s.unit) {
				t.Errorf("%s: unit %q does not fit its suffix (want one of %v)", s.name, s.unit, unitSuffixes[best].units)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

// quickPass runs one pass in-process at self-test size.
func quickPass(t *testing.T, w workload, seed uint64, trace bool) report {
	t.Helper()
	tmp := t.TempDir()
	rep, err := runPass(passConfig{
		w: w, seed: seed, steps: 10, seconds: 1, trace: trace, quick: true, dir: tmp, out: tmp,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s trace=%v: %d of %d operations failed", w.name, trace, rep.Failed, rep.Attempted)
	}
	return rep
}

// checkNames requires a pass to emit exactly the catalogue's names,
// each finite and with the catalogue's unit.
func checkNames(t *testing.T, w workload, rep report, want []spec) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, catalogue has %d", w.name, len(rep.Metrics), len(want))
	}
	for _, s := range want {
		m, ok := rep.Metrics[s.name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", w.name, s.name)
		case m.Unit != s.unit:
			t.Errorf("%s: %s has unit %q, want %q", w.name, s.name, m.Unit, s.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", w.name, s.name, m.Value)
		}
	}
}

// TestQuickSuite runs both passes of every workload at self-test size
// and checks what the workloads were chosen to show: the layers add up
// to the whole, and each layer's rows are zero exactly where the
// configuration leaves that layer idle.
func TestQuickSuite(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e := quickPass(t, w, 42, false)
			checkNames(t, w, e2e, endToEnd)
			for _, s := range endToEnd {
				if e2e.Metrics[s.name].Value <= 0 {
					t.Errorf("%s = %v, an end-to-end metric is never 0", s.name, e2e.Metrics[s.name].Value)
				}
			}

			rep := quickPass(t, w, 42, true)
			checkNames(t, w, rep, perLayer)
			v := func(name string) float64 { return rep.Metrics[name].Value }

			if got := v("stv.unattributed_share"); got > 0.15 {
				t.Errorf("stv.unattributed_share = %.3f: the engine's spans leave more than 15%% of the step unexplained", got)
			}
			if w.multiRank() {
				if got := v("dp.rank_busy_share"); got < 0.85 {
					t.Errorf("dp.rank_busy_share = %.3f, want >= 0.85: op spans must cover the rank's step", got)
				}
			}
			if (v("dp.coord_step_ms") > 0) != w.multiRank() || (v("stv.forward_ms") > 0) == w.multiRank() {
				t.Errorf("dp.* must be live on multi-rank rows only and stv phase times on single-rank rows only")
			}
			if (v("dp.pipe_wait_share") > 0) != (w.pipeRanks > 1) {
				t.Errorf("dp.pipe_wait_share = %v with %d pipeline stages", v("dp.pipe_wait_share"), w.pipeRanks)
			}
			flash := w.offload.Backend == "nvme"
			if (v("store.writes_per_step") > 0) != flash || (v("place.nvme_buckets") > 0) != flash {
				t.Errorf("store.* must be live on flash rows only (writes/step %v, nvme buckets %v)", v("store.writes_per_step"), v("place.nvme_buckets"))
			}
			if (v("act.spills_per_pass") > 0) != (w.act.Offload != "") {
				t.Errorf("act.spills_per_pass = %v with activation offload %q", v("act.spills_per_pass"), w.act.Offload)
			}
			if v("store.path_events") != 0 || v("runtime.goroutines_leaked") != 0 {
				t.Errorf("path events %v, leaked goroutines %v; want 0", v("store.path_events"), v("runtime.goroutines_leaked"))
			}
			switch w.name {
			case "rollback-1r":
				if v("stv.commit_ratio") != 0 || v("stv.redos") == 0 {
					t.Errorf("every step should roll back: commit ratio %v, redos %v", v("stv.commit_ratio"), v("stv.redos"))
				}
			case "flash-1r":
				if v("store.reads_per_step") < 10 || v("store.cache_hit_ratio") != 0 {
					t.Errorf("every acquire should read flash: %v reads/step, hit ratio %v", v("store.reads_per_step"), v("store.cache_hit_ratio"))
				}
			case "dp2-mlpcache":
				if v("store.reads_per_step") > 1 || v("store.cache_hit_ratio") < 0.9 {
					t.Errorf("acquires should hit the cache: %v reads/step, hit ratio %v", v("store.reads_per_step"), v("store.cache_hit_ratio"))
				}
			}
		})
	}
}

// TestSeedIsTheOnlyInput runs dense-1r twice with one seed and once
// with another: one seed, one trajectory and one set of counts; another
// seed, another trajectory, still clean.
func TestSeedIsTheOnlyInput(t *testing.T) {
	w, _ := workloadByName("dense-1r")
	a, b, c := quickPass(t, w, 7, true), quickPass(t, w, 7, true), quickPass(t, w, 8, true)
	if !slices.Equal(a.losses, b.losses) {
		t.Errorf("same seed, different losses:\n%v\n%v", a.losses, b.losses)
	}
	if slices.Equal(a.losses, c.losses) {
		t.Errorf("seeds 7 and 8 trained on the same trajectory")
	}
	for _, s := range perLayer {
		if s.class != host && a.Metrics[s.name] != b.Metrics[s.name] {
			t.Errorf("%s: %v then %v with the same seed", s.name, a.Metrics[s.name].Value, b.Metrics[s.name].Value)
		}
	}
}

// TestCompareVerdicts feeds -compare hand-made results.
func TestCompareVerdicts(t *testing.T) {
	mk := func(step []float64, commits float64) suiteResults {
		r := suiteResults{Seed: 1, Workloads: map[string]workloadResults{}}
		for _, w := range workloads {
			var wr workloadResults
			for _, ms := range step {
				m := map[string]metric{}
				for _, s := range endToEnd {
					m[s.name] = metric{100, s.unit}
				}
				m["step_ms_p50"] = metric{ms, "ms"}
				wr.Untraced = append(wr.Untraced, result{Correct: true, Attempted: 10, Metrics: m})
			}
			wr.Traced = result{Correct: true, Attempted: 10, Metrics: map[string]metric{"stv.commits": {commits, "count"}}}
			r.Workloads[w.name] = wr
		}
		return r
	}
	steady := []float64{100, 101, 100, 99}
	cases := []struct {
		name string
		b    suiteResults
		want string
		code int
	}{
		{"same", mk(steady, 5), verdictOK, 0},
		{"slower", mk([]float64{130, 131, 130, 129}, 5), verdictRegressed, 1},
		{"noisy", mk([]float64{80, 100, 104, 125}, 5), verdictUnresolved, 0},
		{"count moved", mk(steady, 6), "stv.commits", 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := compare(mk(steady, 5), c.b, &out); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.want, out.String())
		}
	}
	// Python's statistics.quantiles([1..10], n=4) gives 2.75 and 8.25.
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
