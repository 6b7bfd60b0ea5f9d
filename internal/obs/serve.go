package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler serves the observability HTTP surface:
//
//   - /metrics — the registry's current samples in text exposition
//   - /trace — the trace so far as Chrome trace-event JSON; with
//     ?follow=1 it streams events as a growing JSON array until the
//     client disconnects (Perfetto tolerates the truncated tail)
//   - /debug/pprof/ — the standard net/http/pprof profiles
//
// Either argument may be nil (no registry, tracing disabled), in which
// case its endpoint reports 404.
func Handler(reg *Registry, tr *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "superoffload observability: /metrics /trace /debug/pprof/")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "no metrics registry (pass a MetricsRegistry)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.WriteText(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if tr == nil {
			http.Error(w, "tracing disabled (run with -trace or pass a Tracer)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("follow") == "" {
			tr.WriteJSON(w)
			return
		}
		streamTrace(w, r, tr)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// streamTrace writes trace events as one growing JSON array, polling
// the tracer for new events until the client goes away. The array is
// never closed — the connection ends mid-stream — which Perfetto's
// JSON importer accepts.
func streamTrace(w http.ResponseWriter, r *http.Request, tr *Tracer) {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	if _, err := fmt.Fprint(w, "["); err != nil {
		return
	}
	n, first := 0, true
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	for {
		for _, e := range tr.EventsSince(n) {
			n++
			if !first {
				if _, err := fmt.Fprint(w, ","); err != nil {
					return
				}
			}
			first = false
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
