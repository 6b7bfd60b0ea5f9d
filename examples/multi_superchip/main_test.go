package main

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the example: both scale points must fit, at 1, 2 and 4
// ranks every one of the run's steps must resolve to a commit or a
// rollback, and the final losses of the three decompositions may differ
// only by reduction-order noise (5.1e-6 and -3.9e-6 today; a wrong
// reduction or verdict moves a loss by orders of magnitude more).
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "Superchips:"); n != 2 {
		t.Errorf("%d fitting plans, want 2:\n%s", n, out.String())
	}
	rows := regexp.MustCompile(`(\d) rank\(s\):.*\((\d+) commits, (\d+) rollbacks\)`).
		FindAllStringSubmatch(out.String(), -1)
	if len(rows) != 3 {
		t.Fatalf("%d training rows, want 3:\n%s", len(rows), out.String())
	}
	for _, row := range rows {
		commits, _ := strconv.Atoi(row[2])
		rollbacks, _ := strconv.Atoi(row[3])
		if commits+rollbacks != steps {
			t.Errorf("%s rank(s): %d commits + %d rollbacks, want %d steps", row[1], commits, rollbacks, steps)
		}
	}
	gaps := regexp.MustCompile(`final-loss gaps: 1 vs 2 ranks (\S+), 2 vs 4 ranks (\S+) `).FindStringSubmatch(out.String())
	if gaps == nil {
		t.Fatalf("no final-loss gaps line:\n%s", out.String())
	}
	for i, what := range []string{"1 vs 2 ranks", "2 vs 4 ranks"} {
		gap, err := strconv.ParseFloat(gaps[i+1], 64)
		if err != nil || math.Abs(gap) > 1e-4 {
			t.Errorf("final-loss gap %s is %s, want reduction-order noise (|gap| <= 1e-4)", what, gaps[i+1])
		}
	}
}
