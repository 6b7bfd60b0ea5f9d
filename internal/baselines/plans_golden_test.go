package baselines_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"superoffload/internal/baselines"
	"superoffload/internal/experiments"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/sched"
)

var update = flag.Bool("update", false, "rewrite testdata/plans_golden.json from this build's Plan results")

const plansGoldenPath = "testdata/plans_golden.json"

// planGolden is one pinned cell of testdata/plans_golden.json: what one
// system's Plan returned for one Appendix A model on 1, 4 or 16 chips at
// the Fig. 10/11 batch size, floats as bit patterns. amd64 only — Go
// fuses multiply-add elsewhere.
type planGolden struct {
	System   string `json:"system"`
	Model    string `json:"model"`
	Chips    int    `json:"chips"`
	Fits     bool   `json:"fits"`
	OOM      string `json:"oom,omitempty"`
	Exec     string `json:"exec"`
	IterBits string `json:"iter_bits"`
	TFLOPS   string `json:"tflops_bits"`
	IdleBits string `json:"idle_bits"`
}

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// TestPlansMatchGolden pins every analytic plan, not only the cells the
// figures render: SuperOffload and the eight baselines × every Appendix A
// model × {1, 4, 16} chips. The golden was generated before the four
// offload baselines became rows over one plan body; regenerate it
// deliberately with -update.
func TestPlansMatchGolden(t *testing.T) {
	var got []planGolden
	systems := append(experiments.Systems(), baselines.ZeROInfinityNVMe)
	for _, chips := range []int{1, 4, 16} {
		batch := map[int]int{1: 8, 4: 16, 16: 128}[chips]
		for _, m := range model.AppendixA() {
			w := sched.Workload{Cluster: hw.ClusterFor(chips), Model: m, GlobalBatch: batch, Seq: 1024}
			for _, s := range systems {
				r := s.Plan(w)
				got = append(got, planGolden{System: s.Name(), Model: m.Name, Chips: chips,
					Fits: r.Fits, OOM: r.OOM, Exec: r.Exec.String(),
					IterBits: bits(r.IterTime), TFLOPS: bits(r.TFLOPS), IdleBits: bits(r.GPUIdleFrac)})
			}
		}
	}
	if *update {
		var buf bytes.Buffer
		for i, g := range got {
			row, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			sep := ",\n"
			if i == 0 {
				sep = "[\n"
			}
			buf.WriteString(sep)
			buf.Write(row)
		}
		buf.WriteString("\n]\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(plansGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(plansGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	var want []planGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d plans, golden has %d", len(got), len(want))
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("plan bits are pinned on amd64 only")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("plan drifted:\n got  %+v\n want %+v", got[i], want[i])
		}
	}
}
