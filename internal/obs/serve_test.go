package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlerMetrics: /metrics serves the registry's text exposition.
func TestHandlerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(samples(Sample{Name: "superoffload_test_ops_total", Kind: KindCounter, Value: 3}))
	srv := httptest.NewServer(Handler(reg, nil))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, "superoffload_test_ops_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
}

// TestHandlerTraceSnapshot: /trace returns the full Chrome trace JSON;
// without a tracer it 404s, as /metrics does without a registry.
func TestHandlerTraceSnapshot(t *testing.T) {
	tr := NewTracer()
	tr.Track("rank 0").Begin("forward").End()
	srv := httptest.NewServer(Handler(NewRegistry(), tr))
	defer srv.Close()

	var parsed struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/trace")), &parsed); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("got %d traceEvents, want 2", len(parsed.TraceEvents))
	}

	none := httptest.NewServer(Handler(nil, nil))
	defer none.Close()
	for _, path := range []string{"/trace", "/metrics"} {
		resp, err := http.Get(none.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without its source = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHandlerTraceFollow: the streaming mode emits events recorded
// after the request started.
func TestHandlerTraceFollow(t *testing.T) {
	tr := NewTracer()
	srv := httptest.NewServer(Handler(NewRegistry(), tr))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/trace?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	tr.Track("late").InstantInt("ping", "bucket", 0)
	buf := make([]byte, 4096)
	var got strings.Builder
	for !strings.Contains(got.String(), `"ping"`) {
		n, err := resp.Body.Read(buf)
		got.Write(buf[:n])
		if err != nil {
			t.Fatalf("stream ended before the event arrived (%v):\n%s", err, got.String())
		}
	}
	if !strings.HasPrefix(got.String(), "[") {
		t.Fatalf("stream is not a JSON array:\n%s", got.String())
	}
}

// TestHandlerPprof: the pprof index must be mounted.
func TestHandlerPprof(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil))
	defer srv.Close()
	if body := get(t, srv.URL+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ does not look like the pprof index:\n%.200s", body)
	}
}

// get fetches a URL and returns its body, failing the test on error.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
