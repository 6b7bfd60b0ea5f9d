package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun plans the four model sizes: at each, every system has a row,
// SuperOffload fits, and it outruns every baseline that fits.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`^  (\S+(?: \S+)?)\s+(?:(\d+\.\d) TFLOPS|OOM)`)
	sizes := strings.Split(strings.TrimSpace(out.String()), "\n\n")
	if len(sizes) != 4 {
		t.Fatalf("%d model sizes, want 4:\n%s", len(sizes), out.String())
	}
	for _, size := range sizes {
		lines := strings.Split(strings.TrimSpace(size), "\n")
		tflops := map[string]float64{}
		for _, l := range lines[1:] {
			m := row.FindStringSubmatch(l)
			if m == nil {
				t.Fatalf("%s: unreadable row %q", lines[0], l)
			}
			if m[2] != "" {
				tflops[m[1]], _ = strconv.ParseFloat(m[2], 64)
			}
		}
		if len(lines) != 9 {
			t.Errorf("%s: %d systems, want SuperOffload and 7 baselines", lines[0], len(lines)-1)
		}
		ours, ok := tflops["SuperOffload"]
		if !ok {
			t.Errorf("%s: SuperOffload does not fit", lines[0])
		}
		for sys, v := range tflops {
			if sys != "SuperOffload" && v >= ours {
				t.Errorf("%s: %s runs %.1f TFLOPS, SuperOffload %.1f", lines[0], sys, v, ours)
			}
		}
	}
}
