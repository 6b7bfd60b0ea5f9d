package experiments

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := newTable("Name", "Value")
	tb.Add("short", 1.5)
	tb.Add("a-much-longer-name", 123456.789)
	tb.AddStrings("raw", "cell")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + sep + 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// All rows share the first column width.
	w := strings.Index(lines[0], "Value")
	for i, l := range lines {
		if i == 1 {
			continue
		}
		if len(l) < w {
			t.Errorf("row %d shorter than header column offset", i)
		}
	}
	if !strings.Contains(out, "123456.79") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	if len(tb.rows) != 3 {
		t.Errorf("rows = %d", len(tb.rows))
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		5e-7: "0.5 µs",
		5e-3: "5.00 ms",
		2.5:  "2.500 s",
	}
	for in, want := range cases {
		if got := seconds(in); got != want {
			t.Errorf("seconds(%v) = %s, want %s", in, got, want)
		}
	}
	if pct(0.123) != "12.3%" {
		t.Errorf("Pct: %s", pct(0.123))
	}
}
