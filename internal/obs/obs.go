// Package obs is the unified observability layer: a tracing tap that
// records per-op schedule spans and store/comm events as Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing), plus a
// metrics registry polling live providers (the facade registers one per
// engine, over its telemetry structs), and an HTTP handler serving both.
//
// The package is deliberately dependency-free (standard library only)
// so every layer of the stack — internal/stv, internal/act,
// internal/dp, the facade — can import it without cycles.
//
// Zero-overhead-when-disabled contract: a nil *Tracer yields nil
// *Track values, and every Track/Span method is nil-safe with an
// immediate return. Hot paths guard span creation with an explicit
// `if track != nil` so the disabled mode adds no allocations and no
// argument marshaling: TestNilTracerIsDisabled holds the nil chain to
// zero allocations, and the facade's TestStepAllocations holds an
// untraced step to the count it had before tracing was compiled in.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// tracePid is the single simulated-process id every track shares: the
// whole engine is one process; tracks (rank interpreters, store
// workers, comm planes) are its threads.
const tracePid = 1

// Event is one Chrome trace event. Ts and Dur are microseconds since
// the tracer started, per the trace-event format. Ph "X" is a complete
// span, "i" an instant, "M" metadata (track names).
type Event struct {
	// Name labels the event (schedule op, store action, track name).
	Name string `json:"name"`
	// Ph is the Chrome event phase: "X", "i", or "M".
	Ph string `json:"ph"`
	// Ts is the event start in microseconds since the trace began.
	Ts float64 `json:"ts"`
	// Dur is a complete ("X") event's length in microseconds.
	Dur float64 `json:"dur,omitempty"`
	// Pid and Tid place the event on a process/thread track.
	Pid int `json:"pid"`
	Tid int `json:"tid"`
	// S is an instant event's scope ("t": thread-scoped).
	S string `json:"s,omitempty"`
	// Args carries event attributes (micro index, bucket, layer...).
	Args map[string]any `json:"args,omitempty"`
}

// Tracer collects trace events from every layer of a training run.
// All methods are safe for concurrent use (ranks, store workers, and
// the coordinator all append), and all are nil-safe: a nil *Tracer is
// the disabled mode and records nothing.
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	events  []Event
	nextTid int
}

// NewTracer starts an enabled tracer; its clock zero is now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), nextTid: 1}
}

// Track allocates a named timeline (one Chrome "thread") for a rank
// interpreter, store worker, or comm plane. Returns nil on a nil
// tracer, so callers can hold a *Track unconditionally and every event
// call no-ops when tracing is off.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	tid := t.nextTid
	t.nextTid++
	t.events = append(t.events, Event{
		Name: "thread_name", Ph: "M", Pid: tracePid, Tid: tid,
		Args: map[string]any{"name": name},
	})
	t.mu.Unlock()
	return &Track{t: t, tid: tid}
}

// add appends one event under the tracer lock.
func (t *Tracer) add(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len reports how many events have been recorded so far (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a snapshot copy of every event recorded so far.
func (t *Tracer) Events() []Event {
	return t.EventsSince(0)
}

// EventsSince returns a snapshot copy of the events recorded at index
// n and beyond — the incremental read the streaming /trace endpoint
// polls. Returns nil on a nil tracer or when nothing new arrived.
func (t *Tracer) EventsSince(n int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(t.events) {
		return nil
	}
	out := make([]Event, len(t.events)-n)
	copy(out, t.events[n:])
	return out
}

// traceFile is the Chrome trace-event JSON object form.
type traceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteJSON writes the full trace in the Chrome trace-event JSON
// object form ({"traceEvents": [...]}), loadable in Perfetto and
// chrome://tracing.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"})
}

// Track is one named timeline of a tracer. A nil *Track is the
// disabled mode: every method returns immediately, and the span
// helpers take only scalar arguments so a disabled call site performs
// no allocation.
type Track struct {
	t   *Tracer
	tid int
}

// now is the track's clock: microseconds since the trace began.
func (k *Track) now() float64 {
	return float64(time.Since(k.t.start)) / float64(time.Microsecond)
}

// Span is an open interval started by Begin. It is a value type so
// opening a span allocates nothing; the zero Span (from a nil track)
// ends as a no-op.
type Span struct {
	tk   *Track
	name string
	t0   float64
}

// Begin opens a span on the track. On a nil track it returns the zero
// Span, whose End variants no-op.
func (k *Track) Begin(name string) Span {
	if k == nil {
		return Span{}
	}
	return Span{tk: k, name: name, t0: k.now()}
}

// End closes the span with no attributes.
func (sp Span) End() {
	if sp.tk == nil {
		return
	}
	sp.finish(nil)
}

// EndMicro closes the span tagged with its micro-batch index.
func (sp Span) EndMicro(micro int) {
	if sp.tk == nil {
		return
	}
	sp.finish(map[string]any{"micro": micro})
}

// EndInt closes the span tagged with one integer attribute.
func (sp Span) EndInt(key string, v int) {
	if sp.tk == nil {
		return
	}
	sp.finish(map[string]any{key: v})
}

// finish records the completed span as a Chrome "X" event.
func (sp Span) finish(args map[string]any) {
	t1 := sp.tk.now()
	sp.tk.t.add(Event{
		Name: sp.name, Ph: "X", Ts: sp.t0, Dur: t1 - sp.t0,
		Pid: tracePid, Tid: sp.tk.tid, Args: args,
	})
}

// InstantInt records a point event tagged with one integer attribute
// (bucket or layer index, payload size...).
func (k *Track) InstantInt(name, key string, v int) {
	if k == nil {
		return
	}
	k.t.add(Event{
		Name: name, Ph: "i", Ts: k.now(), Pid: tracePid, Tid: k.tid, S: "t",
		Args: map[string]any{key: v},
	})
}
