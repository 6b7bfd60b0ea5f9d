package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"superoffload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the -json report golden file")

// fakeEngine is a deterministic engine stand-in with every telemetry
// surface populated, so the golden report exercises each optional key.
type fakeEngine struct{}

func (fakeEngine) Step(b superoffload.Batch) (float64, error) { return 0, nil }
func (fakeEngine) Flush() error                               { return nil }
func (fakeEngine) Close() error                               { return nil }
func (fakeEngine) NumBuckets() int                            { return 12 }
func (fakeEngine) Stats() superoffload.Stats {
	return superoffload.Stats{Steps: 100, Commits: 97, ClipRolls: 2, SkipRolls: 1, Redos: 3}
}
func (fakeEngine) CommStats() superoffload.SPCommStats {
	return superoffload.SPCommStats{A2APayloads: 64, A2AFloats: 4096, RingHops: 32, RingFloats: 2048}
}
func (fakeEngine) StoreTelemetry() (superoffload.StoreTelemetry, bool) {
	return superoffload.StoreTelemetry{Reads: 10, Writes: 20, BytesRead: 1 << 20, BytesWritten: 2 << 20,
		ReadSeconds: 0.25, WriteSeconds: 0.5, StallSeconds: 0.125, ComputeSeconds: 1}, true
}
func (fakeEngine) PlacementTelemetry() (superoffload.PlacementTelemetry, bool) {
	var t superoffload.PlacementTelemetry
	t.Steps = 100
	t.BackwardSeconds = 2
	t.PipelinedSeconds = 3
	t.SerializedSeconds = 4
	t.Tiers[0].Buckets = 2
	t.Tiers[1].Buckets = 9
	t.Tiers[2].Buckets = 1
	return t, true
}
func (fakeEngine) ActTelemetry() (superoffload.ActTelemetry, bool) {
	return superoffload.ActTelemetry{Passes: 100, Spills: 300, Fetches: 300,
		BytesSpilled: 3 << 20, BytesFetched: 3 << 20}, true
}

// TestJSONReportGolden locks the -json output shape — key names, key
// order, nesting, and the versioned metrics_v1 snapshot — against a
// golden file. A mismatch means the machine-readable contract changed:
// bump the metrics_v1 key if the naming scheme moved, and regenerate
// with -update-golden.
func TestJSONReportGolden(t *testing.T) {
	reg := superoffload.NewMetricsRegistry()
	superoffload.RegisterMetrics(reg, fakeEngine{})
	rep := buildReport(fakeEngine{}, reg, 218496, "stv", "2×1×2 3-D engine", 100, 3.625)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json report shape drifted from %s\n got:\n%s\nwant:\n%s\n(run go test ./cmd/supertrain -update-golden to accept)", golden, buf.Bytes(), want)
	}
}

// TestJSONReportOmitsAbsentTelemetry checks the optional keys stay
// absent for an engine that reports none of them (no comm/store/placement
// noise in single-rank DRAM runs), and that all-zero CommStats — a shape
// with no sequence or pipeline links — yields no comm block and no
// superoffload_comm_* metrics either.
func TestJSONReportOmitsAbsentTelemetry(t *testing.T) {
	rep := buildReport(bareEngine{}, nil, 1, "stv", "1 rank", 1, 0)
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"comm", "store", "placement", "act", "metrics_v1"} {
		if bytes.Contains(b, []byte(`"`+key+`"`)) {
			t.Errorf("report for a bare engine contains %q: %s", key, b)
		}
	}

	reg := superoffload.NewMetricsRegistry()
	superoffload.RegisterMetrics(reg, bareEngine{})
	rep = buildReport(bareEngine{}, reg, 1, "stv", "2 DP rank(s)", 1, 0)
	if b, err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"comm"`, "superoffload_comm_"} {
		if bytes.Contains(b, []byte(key)) {
			t.Errorf("report for a link-less shape contains %s: %s", key, b)
		}
	}
	if _, ok := rep.MetricsV1["superoffload_stv_steps_total"]; !ok {
		t.Errorf("link-less shape lost its other metrics: %v", rep.MetricsV1)
	}
}

// runCommand runs the command's run() on args the way main would, and
// returns what it printed on stdout.
func runCommand(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	savedArgs, savedFlags, savedStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = savedArgs, savedFlags, savedStdout }()
	os.Args = append([]string{"supertrain"}, args...)
	flag.CommandLine = flag.NewFlagSet("supertrain", flag.ContinueOnError)
	os.Stdout = out
	if err := run(); err != nil {
		t.Fatalf("supertrain %v: %v", args, err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPipelineRunReportsStageLinks: a pipeline run's text report carries
// the stage-boundary traffic its -json comm block counts (two stages, four
// steps: 8 sends of 4,096 floats), and no all-zero Ulysses line for the
// sequence axis it does not have.
func TestPipelineRunReportsStageLinks(t *testing.T) {
	out := runCommand(t, "-pipe-ranks", "2", "-layers", "2", "-steps", "4")
	if want := "pipeline links: 2.0 stage-boundary sends/step (0.03 MB/step)\n"; !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
	if strings.Contains(out, "ulysses links") {
		t.Errorf("pipeline-only run printed a Ulysses line:\n%s", out)
	}
}

// bareEngine reports no optional telemetry: no store, placement or
// activation tier, and every link counter zero.
type bareEngine struct{}

func (bareEngine) Step(b superoffload.Batch) (float64, error) { return 0, nil }
func (bareEngine) Flush() error                               { return nil }
func (bareEngine) Close() error                               { return nil }
func (bareEngine) NumBuckets() int                            { return 1 }
func (bareEngine) Stats() superoffload.Stats                  { return superoffload.Stats{} }
func (bareEngine) CommStats() superoffload.SPCommStats        { return superoffload.SPCommStats{} }
func (bareEngine) StoreTelemetry() (superoffload.StoreTelemetry, bool) {
	return superoffload.StoreTelemetry{}, false
}
func (bareEngine) PlacementTelemetry() (superoffload.PlacementTelemetry, bool) {
	return superoffload.PlacementTelemetry{}, false
}
func (bareEngine) ActTelemetry() (superoffload.ActTelemetry, bool) {
	return superoffload.ActTelemetry{}, false
}
