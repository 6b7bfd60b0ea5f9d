package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestNilTracerIsDisabled: every method on the nil tracer/track/span
// chain must no-op and allocate nothing — the zero-overhead-when-disabled
// contract.
func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	tk := tr.Track("rank 0")
	if tk != nil {
		t.Fatal("nil tracer returned a non-nil track")
	}
	calls := func() {
		sp := tk.Begin("forward")
		sp.End()
		sp.EndMicro(3)
		sp.EndInt("bucket", 1)
		tk.InstantInt("prefetch", "bucket", 2)
	}
	if n := testing.AllocsPerRun(10, calls); n != 0 {
		t.Fatalf("the nil chain allocates %v times a pass; no tracer must cost what no call costs", n)
	}
	if tr.Len() != 0 || tr.Events() != nil || tr.EventsSince(0) != nil {
		t.Fatal("nil tracer reported events")
	}
}

// TestSpansAndInstants checks the recorded event stream: track
// metadata first, then spans with duration and args, then instants.
func TestSpansAndInstants(t *testing.T) {
	tr := NewTracer()
	tk := tr.Track("rank 0")
	sp := tk.Begin("forward")
	sp.EndMicro(2)
	tk.InstantInt("prefetch", "bucket", 5)
	tk.InstantInt("stall", "layer", 1)

	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	if ev[0].Ph != "M" || ev[0].Name != "thread_name" || ev[0].Args["name"] != "rank 0" {
		t.Fatalf("first event is not the track metadata: %+v", ev[0])
	}
	if ev[1].Ph != "X" || ev[1].Name != "forward" || ev[1].Dur < 0 {
		t.Fatalf("span event malformed: %+v", ev[1])
	}
	if ev[1].Args["micro"] != 2 {
		t.Fatalf("span micro arg = %v, want 2", ev[1].Args["micro"])
	}
	if ev[2].Ph != "i" || ev[2].Args["bucket"] != 5 || ev[2].S != "t" {
		t.Fatalf("instant event malformed: %+v", ev[2])
	}
	if ev[1].Tid != ev[2].Tid || ev[1].Pid != tracePid {
		t.Fatalf("events left the track: %+v vs %+v", ev[1], ev[2])
	}
}

// TestTracksGetDistinctTids: separate tracks must land on separate
// Chrome threads.
func TestTracksGetDistinctTids(t *testing.T) {
	tr := NewTracer()
	a, b := tr.Track("a"), tr.Track("b")
	a.InstantInt("x", "bucket", 0)
	b.InstantInt("y", "bucket", 0)
	ev := tr.Events()
	if ev[2].Tid == ev[3].Tid {
		t.Fatalf("tracks share tid %d", ev[2].Tid)
	}
}

// TestEventsSince checks the incremental read the /trace stream uses.
func TestEventsSince(t *testing.T) {
	tr := NewTracer()
	tk := tr.Track("t")
	tk.InstantInt("a", "bucket", 0)
	n := tr.Len()
	if got := tr.EventsSince(n); got != nil {
		t.Fatalf("EventsSince(Len) = %v, want nil", got)
	}
	tk.InstantInt("b", "bucket", 0)
	got := tr.EventsSince(n)
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("EventsSince(%d) = %+v, want just b", n, got)
	}
}

// TestWriteJSON: the export must be valid Chrome trace-event JSON in
// the object form with a traceEvents array.
func TestWriteJSON(t *testing.T) {
	tr := NewTracer()
	tk := tr.Track("rank 0")
	tk.Begin("forward").End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("got %d traceEvents, want 2", len(parsed.TraceEvents))
	}
}

// TestConcurrentAppend exercises the tracer under parallel producers
// (meaningful under -race).
func TestConcurrentAppend(t *testing.T) {
	tr := NewTracer()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			tk := tr.Track("w")
			for j := 0; j < 100; j++ {
				tk.Begin("op").EndMicro(j)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if want := 4 * 101; tr.Len() != want {
		t.Fatalf("got %d events, want %d", tr.Len(), want)
	}
}
