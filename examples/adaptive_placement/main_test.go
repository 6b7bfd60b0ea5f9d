package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example's check: the planner's GPU-retained tail beats
// full CPU offload on the modeled clock.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"all-gpu", "OK: the GPU-retained tail"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
