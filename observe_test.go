package superoffload

import (
	"regexp"
	"strings"
	"testing"

	"superoffload/internal/obs"
	"superoffload/internal/place"
)

// populatedSamples returns the samples of every telemetry struct the
// engines publish, by subsystem, with enough fields set that
// conditional samples (per-path occupancy, per-tier breakdowns) emit.
func populatedSamples() map[string][]MetricSample {
	var pt PlacementTelemetry
	pt.Steps = 3
	for i := range pt.Tiers {
		pt.Tiers[i].Buckets = i + 1
	}
	return map[string][]MetricSample{
		"nvme":      StoreTelemetry{Reads: 1, Writes: 2, ReadSeconds: 0.5}.Samples(),
		"act":       ActTelemetry{Passes: 2, Spills: 5, Fetches: 5}.Samples(),
		"placement": pt.Samples(),
		"comm":      SPCommStats{A2APayloads: 7, RingHops: 3}.Samples(),
		"stv":       Stats{Steps: 9, Commits: 8, ClipRolls: 1}.Samples(),
	}
}

// TestMetricSourceConformance locks the unified naming scheme: every
// telemetry struct publishes superoffload_<subsystem>_* samples with
// its own subsystem prefix, names stay within the metric charset,
// counters end in _total, and no two structs collide on a name.
func TestMetricSourceConformance(t *testing.T) {
	nameRe := regexp.MustCompile(`^superoffload_[a-z0-9_]+$`)
	owner := map[string]string{}
	for subsystem, samples := range populatedSamples() {
		if len(samples) == 0 {
			t.Errorf("%s: no samples", subsystem)
		}
		for _, s := range samples {
			if !nameRe.MatchString(s.Name) {
				t.Errorf("%s: metric %q outside the superoffload_[a-z0-9_]+ charset", subsystem, s.Name)
			}
			if !strings.HasPrefix(s.Name, "superoffload_"+subsystem+"_") {
				t.Errorf("%s: metric %q missing its subsystem prefix", subsystem, s.Name)
			}
			switch s.Kind {
			case obs.KindCounter:
				if !strings.HasSuffix(s.Name, "_total") {
					t.Errorf("%s: counter %q missing _total suffix", subsystem, s.Name)
				}
			case obs.KindGauge:
			default:
				t.Errorf("%s: metric %q has unknown kind %v", subsystem, s.Name, s.Kind)
			}
			if prev, dup := owner[s.Name]; dup && prev != subsystem {
				t.Errorf("metric %q published by both %s and %s", s.Name, prev, subsystem)
			} else if dup {
				t.Errorf("%s: metric %q published twice", subsystem, s.Name)
			}
			owner[s.Name] = subsystem
		}
	}
}

// TestPlacementTierMetricLabels locks the tier labels the placement
// samples embed in their names (place.Tier.String).
func TestPlacementTierMetricLabels(t *testing.T) {
	want := []string{"gpu", "cpu", "nvme"}
	for i, w := range want {
		if got := place.Tier(i).String(); got != w {
			t.Errorf("tier %d label = %q, want %q", i, got, w)
		}
	}
}

// TestRegisterMetricsLiveProviders wires a real engine into a registry
// and checks Gather serves its live counters — polled from another
// goroutine while Step and StepAccum run, the way ObsHandler's /metrics
// does (meaningful under -race).
func TestRegisterMetricsLiveProviders(t *testing.T) {
	m, err := NewModel(ModelConfig{Layers: 1, Hidden: 32, Vocab: 64, MaxSeq: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOptimizer()
	cfg.BucketElems = 4096
	eng, err := Init(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	reg := NewMetricsRegistry()
	RegisterMetrics(reg, eng)

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				reg.Gather()
			}
		}
	}()
	corpus := NewCorpus(64, 2)
	for i := 0; i < 2; i++ {
		if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.StepAccum([]Batch{corpus.NextBatch(1, 8), corpus.NextBatch(1, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-stopped
	got := map[string]float64{}
	for _, s := range reg.Gather() {
		got[s.Name] = s.Value
	}
	if got["superoffload_stv_steps_total"] != 3 {
		t.Errorf("superoffload_stv_steps_total = %v, want 3 (all samples: %v)", got["superoffload_stv_steps_total"], got)
	}
}

// TestStoreLaneTrackNames pins the trace tracks bench/trace.go folds by
// name: the flash store's lane spans live on "rank N nvme path K" (a
// " nvme" match, one worker per path) beside the consumer instants on
// "rank N nvme", and the activation store's lane spans stay on the
// store's own "rank N act" track (a " act" suffix match).
func TestStoreLaneTrackNames(t *testing.T) {
	m, err := NewModel(ModelConfig{Layers: 4, Hidden: 32, Vocab: 64, MaxSeq: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOptimizer()
	cfg.BucketElems = 4096
	cfg.Offload = OffloadConfig{Backend: "nvme", Dir: t.TempDir(), ResidentBuckets: 2}
	cfg.Activation = ActivationConfig{Offload: "nvme", Dir: t.TempDir(), ResidentLayers: 2}
	cfg.Tracer = NewTracer()
	eng, err := Init(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewCorpus(64, 2)
	for i := 0; i < 3; i++ {
		if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	spans := map[string]map[string]bool{} // track name -> span names seen
	for _, e := range cfg.Tracer.Events() {
		switch e.Ph {
		case "M":
			names[e.Tid], _ = e.Args["name"].(string)
		case "X":
			if spans[names[e.Tid]] == nil {
				spans[names[e.Tid]] = map[string]bool{}
			}
			spans[names[e.Tid]][e.Name] = true
		}
	}
	for _, track := range []string{"rank 0 nvme path 0", "rank 0 act"} {
		if !spans[track]["read"] || !spans[track]["write"] {
			t.Errorf("track %q carries spans %v, want the lane's read and write", track, spans[track])
		}
	}
	if len(spans["rank 0 nvme"]) != 0 {
		t.Errorf("store track \"rank 0 nvme\" carries worker spans %v; they belong on its path track", spans["rank 0 nvme"])
	}
}

// TestTraceTracksTheBenchFolds pins the track and span names the
// benchmark's trace fold reads (bench/trace.go): a traced Init run
// records its phases on one "trainer" track — forward, backward,
// resolve and speculate, the stv.* rows — and no "rank N", coordinator
// or comm track, while a two-rank run records "rank N" and "coordinator"
// tracks, the dp.* rows, and no "trainer".
func TestTraceTracksTheBenchFolds(t *testing.T) {
	for _, mc := range []MeshConfig{{}, {Ranks: 2}} {
		m, err := NewModel(ModelConfig{Layers: 2, Hidden: 32, Vocab: 64, MaxSeq: 16}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultOptimizer()
		cfg.BucketElems = 4096
		cfg.Tracer = NewTracer()
		eng, err := InitMesh(m, cfg, mc)
		if err != nil {
			t.Fatal(err)
		}
		corpus := NewCorpus(64, 2)
		for i := 0; i < 3; i++ {
			if _, err := eng.Step(corpus.NextBatch(2, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		names := map[int]string{}
		spans := map[string]map[string]bool{} // track name -> span names seen
		for _, e := range cfg.Tracer.Events() {
			switch e.Ph {
			case "M":
				names[e.Tid], _ = e.Args["name"].(string)
				spans[names[e.Tid]] = map[string]bool{}
			case "X":
				spans[names[e.Tid]][e.Name] = true
			}
		}
		single := mc == MeshConfig{}
		for _, phase := range []string{"forward", "backward", "resolve", "speculate"} {
			main := "rank 0"
			if single {
				main = "trainer"
			}
			if !spans[main][phase] {
				t.Errorf("%+v: track %q carries spans %v, want a %q span", mc, main, spans[main], phase)
			}
		}
		for track, want := range map[string]bool{"trainer": single, "rank 0": !single, "coordinator": !single, "comm": !single} {
			if _, ok := spans[track]; ok != want {
				t.Errorf("%+v: track %q recorded = %v, want %v", mc, track, ok, want)
			}
		}
	}
}
