package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun trains with the endpoint live: run fails unless /metrics serves
// the stv and nvme series mid-run and the trace export is Chrome JSON
// with forward, backward, speculate, prefetch, flush and step events, and
// it reports both checks.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mid-run /metrics serves live superoffload_* counters", "valid Chrome trace JSON"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
