package obs

import (
	"strings"
	"testing"
)

// samples returns a provider that reports a fixed sample list.
func samples(s ...Sample) func() []Sample { return func() []Sample { return s } }

// TestGatherMergesAndSorts: every provider's samples join, same-named
// samples sum, a provider with nothing to report adds nothing, and the
// output is name-sorted.
func TestGatherMergesAndSorts(t *testing.T) {
	r := NewRegistry()
	r.Register(samples(Sample{Name: "superoffload_test_b_total", Kind: KindCounter, Value: 1}))
	r.Register(samples(
		Sample{Name: "superoffload_test_a_total", Kind: KindCounter, Value: 2},
		Sample{Name: "superoffload_test_b_total", Kind: KindCounter, Value: 4},
	))
	r.Register(samples()) // dormant provider
	got := r.Gather()
	if len(got) != 2 {
		t.Fatalf("got %d samples, want 2: %v", len(got), got)
	}
	if got[0].Name != "superoffload_test_a_total" || got[0].Value != 2 {
		t.Fatalf("sample 0 = %+v", got[0])
	}
	if got[1].Name != "superoffload_test_b_total" || got[1].Value != 5 {
		t.Fatalf("same-named samples did not sum: %+v", got[1])
	}
}

// TestWriteText checks the text exposition format.
func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Register(samples(
		Sample{Name: "superoffload_test_ops_total", Kind: KindCounter, Value: 7},
		Sample{Name: "superoffload_test_frac", Kind: KindGauge, Value: 0.25},
	))
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE superoffload_test_frac gauge\nsuperoffload_test_frac 0.25\n" +
		"# TYPE superoffload_test_ops_total counter\nsuperoffload_test_ops_total 7\n"
	if got := sb.String(); got != want {
		t.Fatalf("exposition = %q, want %q", got, want)
	}
}
