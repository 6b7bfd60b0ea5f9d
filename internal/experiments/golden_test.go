package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment snapshots")

// hostMeasuredMarker starts table3's section of kernel timings measured on
// the running host — real wall-clock numbers that cannot be byte-stable.
// Everything before the marker (the paper's modeled table) is snapshotted.
const hostMeasuredMarker = "\nReal Go kernels measured on this machine:"

// archSensitive maps experiment ids whose output comes from real training
// to the GOARCH their snapshot was generated on. Go fuses multiply-add
// into FMA on arm64 but not amd64, and a real loss trajectory amplifies
// that rounding difference, so byte-exact comparison only holds on the
// generating architecture; elsewhere the experiment still runs and must
// render at least 40 bytes.
var archSensitive = map[string]string{
	"fig14":             "amd64",
	"ext-act-stv":       "amd64",
	"ext-nvme-stv":      "amd64",
	"ext-mlp-stv":       "amd64",
	"ext-ulysses-stv":   "amd64",
	"ext-mesh-stv":      "amd64",
	"ext-pipe-stv":      "amd64",
	"ext-placement-stv": "amd64",
}

// canonical trims host-measured suffixes so snapshots only cover
// deterministic rendering.
func canonical(out string) string {
	if i := strings.Index(out, hostMeasuredMarker); i >= 0 {
		return out[:i]
	}
	return out
}

// TestGoldenExperiments snapshots the rendered output of every registered
// experiment id and asserts byte-stable rendering, so planner or renderer
// refactors cannot silently corrupt the paper's tables and figures.
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGolden -update
func TestGoldenExperiments(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			out, err := Run(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) < 40 {
				t.Fatalf("output suspiciously short:\n%s", out)
			}
			out = canonical(out)
			if arch, ok := archSensitive[name]; ok && runtime.GOARCH != arch {
				t.Skipf("snapshot generated on %s; real-training floats may differ on %s (FMA fusion)", arch, runtime.GOARCH)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot (run with -update): %v", err)
			}
			if string(want) != out {
				t.Errorf("%s rendering drifted from golden snapshot.\nIf the change is intentional, regenerate with -update.\ngot %d bytes, want %d bytes", name, len(out), len(want))
			}
		})
	}
}

// TestGoldenCoversRegistry pins the registry inventory: adding or removing
// an experiment id must be a conscious act that updates the snapshots.
func TestGoldenCoversRegistry(t *testing.T) {
	if *update {
		t.Skip("updating")
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatalf("missing testdata (run with -update): %v", err)
	}
	golden := map[string]bool{}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".golden" {
			golden[e.Name()[:len(e.Name())-len(".golden")]] = true
		}
	}
	names := Names()
	if len(golden) != len(names) {
		t.Errorf("%d golden snapshots for %d experiments", len(golden), len(names))
	}
	for _, n := range names {
		if !golden[n] {
			t.Errorf("experiment %q has no golden snapshot", n)
		}
	}
}
