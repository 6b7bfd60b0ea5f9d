package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the example: both scale points must fit, and at 1, 2 and
// 4 ranks every one of the run's steps must resolve to a commit or a
// rollback.
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
}
