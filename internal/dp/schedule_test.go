package dp

import (
	"fmt"
	"strings"
	"testing"

	"superoffload/internal/data"
)

// opNames renders a schedule compactly for golden comparison:
// "resolve F0 B0 R0 …".
func opNames(ops []scheduleOp) string {
	short := map[opKind]string{
		opForward: "F", opBackward: "B", opReduce: "R",
		opSendAct: "sa", opRecvAct: "ra", opSendGrad: "sg", opRecvGrad: "rg",
	}
	var parts []string
	for _, op := range ops {
		switch op.kind {
		case opResolve:
			parts = append(parts, "resolve")
		case opSpeculate:
			parts = append(parts, "speculate")
		case opReport:
			parts = append(parts, "report")
		default:
			parts = append(parts, fmt.Sprintf("%s%d", short[op.kind], op.micro))
		}
	}
	return strings.Join(parts, " ")
}

// TestLegacyScheduleGolden pins the op sequence every P=1 shape (DP,
// SP, mesh) runs: resolve the previous verdict, so that every forward
// reads the resolved weights and none is redone, then
// forward/backward/reduce each micro, speculate, report.
func TestLegacyScheduleGolden(t *testing.T) {
	goldens := map[int]string{
		1: "resolve F0 B0 R0 speculate report",
		2: "resolve F0 B0 R0 F1 B1 R1 speculate report",
		3: "resolve F0 B0 R0 F1 B1 R1 F2 B2 R2 speculate report",
	}
	for micros, want := range goldens {
		if got := opNames(stageSchedule(0, 1, micros)); got != want {
			t.Errorf("stageSchedule(0, 1, %d):\n got %s\nwant %s", micros, got, want)
		}
	}
	// At P=1 every rank is stage 0 (the engine passes rank%P):
	// every rank of a collective group must emit identical schedules or
	// the channel collectives deadlock.
	for rank := 0; rank < 4; rank++ {
		if got := opNames(stageSchedule(rank%1, 1, 2)); got != goldens[2] {
			t.Errorf("rank %d at P=1: %s, want %s", rank, got, goldens[2])
		}
	}
}

// TestPipeScheduleGolden pins the 1F1B sequences for a 2-stage and a
// 3-stage pipeline. Stage 0 never receives activations or sends
// gradients; the last stage never sends activations or receives
// gradients; warmup depth falls linearly with the stage index.
func TestPipeScheduleGolden(t *testing.T) {
	cases := []struct {
		stage, stages, micros int
		want                  string
	}{
		// P=1 is the legacy shape, resolving first like every depth.
		{0, 1, 2, "resolve F0 B0 R0 F1 B1 R1 speculate report"},
		// P=2, M=3: stage 0 warms up one forward, then steady 1F1B.
		{0, 2, 3, "resolve F0 sa0 F1 sa1 rg0 B0 R0 F2 sa2 rg1 B1 R1 rg2 B2 R2 speculate report"},
		{1, 2, 3, "resolve ra0 F0 B0 sg0 R0 ra1 F1 B1 sg1 R1 ra2 F2 B2 sg2 R2 speculate report"},
		// P=3, M=2: warmup min(stages-1-stage, micros) forwards.
		{0, 3, 2, "resolve F0 sa0 F1 sa1 rg0 B0 R0 rg1 B1 R1 speculate report"},
		{1, 3, 2, "resolve ra0 F0 sa0 ra1 F1 sa1 rg0 B0 sg0 R0 rg1 B1 sg1 R1 speculate report"},
		{2, 3, 2, "resolve ra0 F0 B0 sg0 R0 ra1 F1 B1 sg1 R1 speculate report"},
		// More stages above than micros: warmup clamps to M.
		{0, 4, 1, "resolve F0 sa0 rg0 B0 R0 speculate report"},
	}
	for _, c := range cases {
		if got := opNames(stageSchedule(c.stage, c.stages, c.micros)); got != c.want {
			t.Errorf("stageSchedule(%d, %d, %d):\n got %s\nwant %s", c.stage, c.stages, c.micros, got, c.want)
		}
	}
}

// TestPipeScheduleProperties checks the structural invariants every
// generated 1F1B schedule must satisfy, across a sweep of shapes.
func TestPipeScheduleProperties(t *testing.T) {
	for stages := 1; stages <= 5; stages++ {
		for stage := 0; stage < stages; stage++ {
			for micros := 1; micros <= 6; micros++ {
				ops := stageSchedule(stage, stages, micros)
				name := fmt.Sprintf("stage %d/%d, %d micros", stage, stages, micros)
				// The verdict is applied before any forward, so none is
				// redone; resolve runs once.
				if ops[0].kind != opResolve {
					t.Fatalf("%s: must open resolve; got %s", name, opNames(ops[:1]))
				}
				if ops[len(ops)-2].kind != opSpeculate || ops[len(ops)-1].kind != opReport {
					t.Fatalf("%s: must close speculate, report", name)
				}
				counts := map[opKind][]int{}
				inFlight := 0
				maxInFlight := 0
				for _, op := range ops {
					counts[op.kind] = append(counts[op.kind], op.micro)
					if op.kind == opForward {
						inFlight++
						if inFlight > maxInFlight {
							maxInFlight = inFlight
						}
					}
					if op.kind == opBackward {
						inFlight--
					}
				}
				ascending := func(k opKind, want int) {
					ms := counts[k]
					if len(ms) != want {
						t.Fatalf("%s: op %d count %d, want %d", name, k, len(ms), want)
					}
					for i, m := range ms {
						if m != i {
							t.Fatalf("%s: op %d micros %v not in order", name, k, ms)
						}
					}
				}
				// Every micro forwards, backwards, and reduces exactly once,
				// in ascending micro order per op kind.
				ascending(opForward, micros)
				ascending(opBackward, micros)
				ascending(opReduce, micros)
				ascending(opResolve, 1)
				// Boundary ops exist iff the boundary exists.
				wantUp, wantDown := 0, 0
				if stage > 0 {
					wantUp = micros
				}
				if stage < stages-1 {
					wantDown = micros
				}
				ascending(opRecvAct, wantUp)
				ascending(opSendGrad, wantUp)
				ascending(opSendAct, wantDown)
				ascending(opRecvGrad, wantDown)
				// 1F1B bounds in-flight micro-batches by the warmup depth + 1,
				// never by M: memory stays O(P), not O(M).
				warmup := stages - 1 - stage
				if warmup > micros {
					warmup = micros
				}
				if maxInFlight != warmup+1 && !(micros == warmup && maxInFlight == warmup) {
					t.Fatalf("%s: max in-flight %d, want %d", name, maxInFlight, warmup+1)
				}
			}
		}
	}
}

// TestDegenerateAxesAreFree: a size-1 axis allocates no links, emits no
// ops, and counts no traffic. (2,1,1) is the plain data-parallel shape —
// no cell channels, no boundary FIFOs, the legacy schedule, all-zero
// CommStats; (2,2,1) adds the sequence axis only — still no boundary
// ops or stage traffic; (1,1,2) adds the pipeline axis only — stage
// sends, but no all-to-all or ring traffic.
func TestDegenerateAxesAreFree(t *testing.T) {
	train := func(cfg Config) *Engine {
		t.Helper()
		eng, err := New(tinyGPT(42), cfg)
		if err != nil {
			t.Fatal(err)
		}
		corpus := data.NewCorpus(64, 3)
		for i := 0; i < 3; i++ {
			if _, err := eng.Step(corpus.NextBatch(4, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	boundaryOps := func(ops []scheduleOp) int {
		n := 0
		for _, op := range ops {
			switch op.kind {
			case opSendAct, opRecvAct, opSendGrad, opRecvGrad:
				n++
			}
		}
		return n
	}

	plain := train(shapeConfig(2, 1, 1))
	defer plain.Close()
	w := plain.w
	if len(w.acts) != 0 || len(w.grads) != 0 {
		t.Errorf("(2,1,1): %d+%d boundary link rows allocated", len(w.acts), len(w.grads))
	}
	for i, c := range w.cells {
		if c.a2a != nil || c.ring != nil || c.flat != nil {
			t.Errorf("(2,1,1): cell %d holds sequence-parallel channels", i)
		}
	}
	for rank := 0; rank < w.N; rank++ {
		if got, want := opNames(stageSchedule(rank%w.P, w.P, 2)), "resolve F0 B0 R0 F1 B1 R1 speculate report"; got != want {
			t.Errorf("(2,1,1) rank %d schedule:\n got %s\nwant %s", rank, got, want)
		}
	}
	if cs := plain.CommStats(); cs != (SPCommStats{}) {
		t.Errorf("(2,1,1): link-less shape counted traffic: %+v", cs)
	}

	mesh := train(shapeConfig(2, 2, 1))
	defer mesh.Close()
	w = mesh.w
	if len(w.acts) != 0 || len(w.grads) != 0 {
		t.Errorf("(2,2,1): %d+%d boundary link rows allocated", len(w.acts), len(w.grads))
	}
	for rank := 0; rank < w.N; rank++ {
		if n := boundaryOps(stageSchedule(rank%w.P, w.P, 3)); n != 0 {
			t.Errorf("(2,2,1) rank %d schedule carries %d boundary ops", rank, n)
		}
	}
	cs := mesh.CommStats()
	if cs.StageSends != 0 || cs.StageFloats != 0 {
		t.Errorf("(2,2,1): stage traffic without a pipeline axis: %+v", cs)
	}
	if cs.A2APayloads == 0 || cs.RingHops == 0 {
		t.Errorf("(2,2,1): sequence axis recorded no traffic: %+v", cs)
	}

	// S=1 under a pipeline: stages exist and send, sequence channels do
	// not exist and the lone rank's local ring replay is not link traffic.
	pipe, err := New(deepGPT(42), shapeConfig(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	for i, c := range pipe.w.cells {
		if c.a2a != nil || c.ring != nil || c.flat != nil {
			t.Errorf("(1,1,2): cell %d holds sequence-parallel channels", i)
		}
	}
	corpus := data.NewCorpus(64, 3)
	for i := 0; i < 2; i++ {
		if _, err := pipe.Step(corpus.NextBatch(4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	cs = pipe.CommStats()
	if cs.A2APayloads != 0 || cs.A2AFloats != 0 || cs.RingHops != 0 || cs.RingFloats != 0 {
		t.Errorf("(1,1,2): sequence traffic without a sequence axis: %+v", cs)
	}
	if cs.StageSends == 0 || cs.StageFloats == 0 {
		t.Errorf("(1,1,2): pipeline axis recorded no stage traffic: %+v", cs)
	}
}
