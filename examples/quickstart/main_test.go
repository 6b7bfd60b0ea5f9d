package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun trains the demo model and checks it reports every 20th step
// and the validation outcome.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"step 100", "validation:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
