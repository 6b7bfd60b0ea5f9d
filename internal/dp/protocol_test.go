package dp

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"superoffload/internal/data"
	"superoffload/internal/fp16"
	"superoffload/internal/obs"
	"superoffload/internal/place"
	"superoffload/internal/stv"
)

// replicaWeights is one rank's fp16 replica of every bucket, in global
// bucket order.
func replicaWeights(rk *rank) []float32 {
	var out []float32
	for _, g := range rk.groups {
		for _, p := range g {
			out = append(out, p.W.Data...)
		}
	}
	return out
}

// TestFlushAfterClip: a Flush whose verdict clips makes every rank apply
// it and re-gather the weights, so every replica holds the clipped
// masters rounded to fp16. Flush counts one clip rollback and nothing
// else, and records no placement step: its schedule has no micro-batch.
func TestFlushAfterClip(t *testing.T) {
	for _, sh := range []shape{s111, s211, s212} {
		t.Run(sh.String(), func(t *testing.T) {
			cfg := shapeConfig(sh.R, sh.S, sh.P)
			cfg.ClipNorm = 1e-6 // every verdict clips
			nb := len(stv.PartitionGroups(deepGPT(3).Params(), cfg.BucketElems))
			plan := place.GPUTail(nb, 1)
			cfg.Placement = &plan
			e, err := New(deepGPT(3), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			corpus := data.NewCorpus(64, 9)
			for i := 0; i < 2; i++ {
				if _, err := e.Step(corpus.NextBatch(2*sh.R, 8)); err != nil {
					t.Fatal(err)
				}
			}
			before := e.Stats()
			placed, _ := e.PlacementTelemetry()
			weights := replicaWeights(e.ranks[0])
			changed, err := e.Flush()
			if err != nil || !changed {
				t.Fatalf("Flush = %v, %v; want a clip that changed the weights", changed, err)
			}
			want := before
			want.ClipRolls++
			if got := e.Stats(); got != want {
				t.Errorf("Stats after Flush %+v, want %+v", got, want)
			}
			if after, _ := e.PlacementTelemetry(); after.Steps != placed.Steps {
				t.Errorf("Flush recorded %d placement steps", after.Steps-placed.Steps)
			}
			masters := e.MasterWeights()
			fp16.Round(masters, masters)
			if slices.Equal(masters, weights) {
				t.Fatal("the clip left rank 0's replica as it was")
			}
			for _, rk := range e.ranks {
				if !slices.Equal(replicaWeights(rk), masters) {
					t.Errorf("rank %d's replica is not the clipped masters in fp16", rk.id)
				}
			}
		})
	}
}

// rankSpans returns the names of the spans each rank's track recorded
// since event n, in order (a one-rank engine's track is "trainer").
func rankSpans(tr *obs.Tracer, n, ranks int) [][]string {
	track := map[string]int{"trainer": 0}
	for id := 0; id < ranks; id++ {
		track[fmt.Sprintf("rank %d", id)] = id
	}
	tids := map[int]int{}
	for _, e := range tr.Events() {
		if id, ok := track[fmt.Sprint(e.Args["name"])]; ok && e.Ph == "M" {
			tids[e.Tid] = id
		}
	}
	out := make([][]string, ranks)
	for _, e := range tr.EventsSince(n) {
		if id, ok := tids[e.Tid]; ok && e.Ph == "X" {
			out[id] = append(out[id], e.Name)
		}
	}
	return out
}

// settledSpans is rankSpans once every rank's list holds reports report
// spans, or after 10 s: a rank ends its report span after it sends the
// report, so that span can land after the call that collected it returns.
func settledSpans(tr *obs.Tracer, n, ranks, reports int) [][]string {
	deadline := time.Now().Add(10 * time.Second)
	for {
		spans := rankSpans(tr, n, ranks)
		done := true
		for _, s := range spans {
			done = done && strings.Count(strings.Join(s, " "), "report") == reports
		}
		if done || time.Now().After(deadline) {
			return spans
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRankSpansFollowTheSchedule: with a clip verdict pending, a traced
// step of two micro-batches runs at P = 1 forward 0, resolve, the redo
// of forward 0, then the rest of the step, and at P = 2 resolve first
// with no redo; a Flush after it is a resolve and a report. No rank has
// any span the schedule does not name.
func TestRankSpansFollowTheSchedule(t *testing.T) {
	const p1 = "forward resolve forward backward reduce forward backward reduce speculate report"
	const flush = " resolve report"
	want := map[shape][]string{
		s111: {p1 + flush},
		s211: {p1 + flush, p1 + flush},
		s112: {
			"resolve forward sendAct forward sendAct recvGrad backward reduce recvGrad backward reduce speculate report" + flush,
			"resolve recvAct forward backward sendGrad reduce recvAct forward backward sendGrad reduce speculate report" + flush,
		},
	}
	for sh, ranks := range want {
		t.Run(sh.String(), func(t *testing.T) {
			tr := obs.NewTracer()
			cfg := shapeConfig(sh.R, sh.S, sh.P)
			cfg.ClipNorm = 1e-6 // every verdict clips
			cfg.Tracer = tr
			e, err := New(deepGPT(5), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			corpus := data.NewCorpus(64, 4)
			window := func() []data.Batch {
				return []data.Batch{corpus.NextBatch(2*sh.R, 8), corpus.NextBatch(2*sh.R, 8)}
			}
			if _, err := e.StepAccum(window()); err != nil {
				t.Fatal(err)
			}
			settledSpans(tr, 0, len(ranks), 1)
			n, redos := tr.Len(), e.Stats().Redos
			if _, err := e.StepAccum(window()); err != nil {
				t.Fatal(err)
			}
			if got := e.Stats().Redos - redos; got != 1 {
				t.Errorf("the clipped step counted %d redos, want 1 (as every shape counts)", got)
			}
			if _, err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			for id, spans := range settledSpans(tr, n, len(ranks), 2) {
				if got := strings.Join(spans, " "); got != ranks[id] {
					t.Errorf("rank %d spans of a step and a Flush:\n got %s\nwant %s", id, got, ranks[id])
				}
			}
		})
	}
}
