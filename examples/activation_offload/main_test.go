package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example's three checks: the HBM guard refuses the
// overflowing shape with an error that points at offloading, both tiers
// train bit-identically to resident activations, and the prefetch beats
// the serialized schedule.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Activation.Offload", "trajectories are bit-identical", "prefetch hides"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
