// Tracing: the unified observability layer end to end — record per-op
// schedule spans and store events with a Tracer, publish every engine
// telemetry surface into a MetricsRegistry, serve both over HTTP, and
// validate the Chrome trace export. The example polls its own /metrics
// endpoint mid-run and re-parses the trace JSON, so it doubles as a
// smoke test of the observability stack (it exits nonzero on any
// failure, and its test runs it under go test).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"superoffload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run trains with the tracer and the metrics endpoint live, prints what
// it checked to w, and returns the first failed check.
func run(w io.Writer) error {
	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: 2, Hidden: 64, Vocab: 128, MaxSeq: 32,
	}, 7)
	if err != nil {
		return err
	}
	optimizer := superoffload.DefaultOptimizer()
	optimizer.ClipNorm = 5.0
	// Step 1: hand the optimizer config a tracer. Every engine records
	// per-op schedule spans (one track per rank), store IO events, and
	// collective instants into it; leaving the field nil disables
	// tracing at zero cost.
	tracer := superoffload.NewTracer()
	optimizer.Tracer = tracer
	optimizer.Offload = superoffload.OffloadConfig{Backend: "nvme"}
	optimizer.BucketElems = 8192

	engine, err := superoffload.InitDP(model, optimizer, superoffload.DPConfig{Ranks: 2})
	if err != nil {
		return err
	}
	defer engine.Close()

	// Step 2: publish the engine's telemetry into a metrics registry.
	// Each Gather re-reads the engine, so the registry always serves
	// mid-run values.
	registry := superoffload.NewMetricsRegistry()
	superoffload.RegisterMetrics(registry, engine)

	// Step 3: serve /metrics, /trace, and /debug/pprof while training.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: superoffload.ObsHandler(registry, tracer)}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(w, "observability on http://%s\n", ln.Addr())

	corpus := superoffload.NewCorpus(128, 11)
	for step := 1; step <= 60; step++ {
		if _, err := engine.Step(corpus.NextBatch(4, 16)); err != nil {
			return err
		}
		if step == 30 {
			// Mid-run: the endpoint must serve live counters while rank
			// goroutines are training and store workers are in flight.
			resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ln.Addr()))
			if err != nil {
				return err
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if body := string(b); !strings.Contains(body, "superoffload_stv_steps_total") ||
				!strings.Contains(body, "superoffload_nvme_reads_total") {
				return fmt.Errorf("mid-run /metrics missing expected series:\n%s", body)
			}
			fmt.Fprintln(w, "mid-run /metrics serves live superoffload_* counters")
		}
	}
	if err := engine.Flush(); err != nil {
		return err
	}
	if err := engine.Close(); err != nil {
		return err
	}

	// The export must be valid Chrome trace-event JSON with the per-rank
	// schedule spans and the store's prefetch/flush instants.
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		return err
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		return fmt.Errorf("trace export is not valid JSON: %w", err)
	}
	seen := map[string]int{}
	for _, e := range trace.TraceEvents {
		seen[e.Name]++
	}
	for _, want := range []string{"forward", "backward", "speculate", "prefetch", "flush", "step"} {
		if seen[want] == 0 {
			return fmt.Errorf("trace has no %q events (got %v)", want, seen)
		}
	}
	fmt.Fprintf(w, "trace: %d events (%d forward spans, %d prefetch instants) — valid Chrome trace JSON\n",
		len(trace.TraceEvents), seen["forward"], seen["prefetch"])
	return nil
}
