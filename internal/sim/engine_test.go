package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSerialChainOnOneResource(t *testing.T) {
	e := New()
	e.AddResource("gpu", 1)
	a := e.Add("a", "gpu", 1.0, TagCompute)
	b := e.Add("b", "gpu", 2.0, TagCompute)
	c := e.Add("c", "gpu", 3.0, TagCompute)
	b.After(a)
	c.After(b)
	ms, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ms != 6.0 {
		t.Errorf("makespan = %v, want 6", ms)
	}
	if a.Start != 0 || b.Start != 1 || c.Start != 3 {
		t.Errorf("starts: %v %v %v", a.Start, b.Start, c.Start)
	}
}

func TestIndependentTasksSerializeOnStream(t *testing.T) {
	e := New()
	e.AddResource("gpu", 1)
	e.Add("a", "gpu", 1.0, TagCompute)
	e.Add("b", "gpu", 1.0, TagCompute)
	ms, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ms != 2.0 {
		t.Errorf("stream should serialize: makespan = %v, want 2", ms)
	}
}

func TestIndependentTasksParallelOnPool(t *testing.T) {
	e := New()
	e.AddResource("cpu", 4)
	for i := 0; i < 4; i++ {
		e.Add("w", "cpu", 1.0, TagOptim)
	}
	ms, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ms != 1.0 {
		t.Errorf("pool of 4 should run 4 tasks concurrently: makespan = %v", ms)
	}
}

func TestPoolQueuesBeyondCapacity(t *testing.T) {
	e := New()
	e.AddResource("cpu", 2)
	for i := 0; i < 5; i++ {
		e.Add("w", "cpu", 1.0, TagOptim)
	}
	ms, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ms != 3.0 { // ceil(5/2) waves
		t.Errorf("makespan = %v, want 3", ms)
	}
}

func TestCrossResourceDependency(t *testing.T) {
	e := New()
	gpuTask := e.Add("bwd", "gpu", 2.0, TagCompute)
	xfer := e.Add("d2h", "d2h", 0.5, TagTransfer)
	xfer.After(gpuTask)
	opt := e.Add("adam", "cpu", 1.0, TagOptim)
	opt.After(xfer)
	ms, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ms != 3.5 {
		t.Errorf("makespan = %v, want 3.5", ms)
	}
	if opt.Start != 2.5 {
		t.Errorf("optimizer start = %v, want 2.5", opt.Start)
	}
}

func TestOverlapMatchesManualSchedule(t *testing.T) {
	// Bucketized backward: bwd bucket i (1s each) overlaps d2h of bucket
	// i-1 (0.3s) and cpu step of i-2 (0.4s). Pipeline should hide the
	// copies and steps except for the tail.
	e := New()
	const n = 4
	var bwd, d2h, opt [n]*Task
	for i := 0; i < n; i++ {
		bwd[i] = e.Add("bwd", "gpu", 1.0, TagCompute)
		if i > 0 {
			bwd[i].After(bwd[i-1])
		}
		d2h[i] = e.Add("d2h", "d2h", 0.3, TagTransfer)
		d2h[i].After(bwd[i])
		opt[i] = e.Add("opt", "cpu", 0.4, TagOptim)
		opt[i].After(d2h[i])
	}
	ms, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 4.0 + 0.3 + 0.4 // last bucket exposed
	if math.Abs(ms-want) > 1e-12 {
		t.Errorf("makespan = %v, want %v", ms, want)
	}
}

func TestCycleDetection(t *testing.T) {
	e := New()
	a := e.Add("a", "gpu", 1, TagCompute)
	b := e.Add("b", "gpu", 1, TagCompute)
	a.After(b)
	b.After(a)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected cycle error")
	}

	// One reachable task beside the cycle: the count names the total.
	e = New()
	e.Add("root", "gpu", 1, TagCompute)
	a = e.Add("a", "gpu", 1, TagCompute)
	b = e.Add("b", "gpu", 1, TagCompute)
	a.After(b)
	b.After(a)
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "2 of 3 tasks unreachable") {
		t.Fatalf("cycle error = %v, want \"2 of 3 tasks unreachable\"", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := New()
	e.Add("a", "gpu", 1, TagCompute)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestUtilizationAndIdle(t *testing.T) {
	e := New()
	a := e.Add("a", "gpu", 1.0, TagCompute)
	b := e.Add("b", "gpu", 1.0, TagCompute)
	gap := e.Add("x", "cpu", 2.0, TagOptim)
	gap.After(a)
	b.After(gap)
	ms, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ms != 4.0 {
		t.Fatalf("makespan = %v", ms)
	}
	u := e.Utilization("gpu", ms)
	if math.Abs(u.Fraction()-0.5) > 1e-12 {
		t.Errorf("gpu utilization = %v, want 0.5", u.Fraction())
	}
	if u.ByTag[TagCompute] != 2.0 {
		t.Errorf("compute busy = %v", u.ByTag[TagCompute])
	}
}

func TestUtilizationMergesOverlaps(t *testing.T) {
	e := New()
	e.AddResource("cpu", 2)
	e.Add("a", "cpu", 2.0, TagOptim)
	e.Add("b", "cpu", 2.0, TagOptim)
	ms, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	u := e.Utilization("cpu", ms)
	if u.Fraction() > 1.0 || math.Abs(u.Fraction()-1.0) > 1e-12 {
		t.Errorf("pool utilization = %v, want exactly 1.0 (merged)", u.Fraction())
	}
}

func TestZeroDurationTasksDontTrace(t *testing.T) {
	e := New()
	a := e.Add("barrier", "gpu", 0, TagCompute)
	b := e.Add("b", "gpu", 1, TagCompute)
	b.After(a)
	ms, err := e.Run()
	if err != nil || ms != 1.0 {
		t.Fatalf("ms=%v err=%v", ms, err)
	}
	if len(e.Resource("gpu").Intervals) != 1 {
		t.Errorf("zero-duration task should not record an interval")
	}
}

func TestGanttRendering(t *testing.T) {
	e := New()
	a := e.Add("fwd", "gpu", 1, TagCompute)
	x := e.Add("d2h", "d2h", 1, TagTransfer)
	x.After(a)
	o := e.Add("adam", "cpu", 1, TagOptim)
	o.After(x)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	g := e.Gantt(60)
	for _, want := range []string{"gpu", "d2h", "cpu", "C", "T", "O", "legend"} {
		if !strings.Contains(g, want) {
			t.Errorf("gantt missing %q:\n%s", want, g)
		}
	}
}

func TestMakespanEqualsCriticalPathProperty(t *testing.T) {
	// Property: for a random serial chain on one resource, makespan
	// equals the sum of durations; adding an independent parallel
	// resource task never increases it beyond max(chain, that task).
	f := func(durs []uint8, solo uint8) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 50 {
			durs = durs[:50]
		}
		e := New()
		var prev *Task
		var sum float64
		for _, d := range durs {
			dd := float64(d%20) / 10.0
			sum += dd
			tk := e.Add("t", "gpu", dd, TagCompute)
			if prev != nil {
				tk.After(prev)
			}
			prev = tk
		}
		soloDur := float64(solo%40) / 10.0
		e.Add("solo", "cpu", soloDur, TagOptim)
		ms, err := e.Run()
		if err != nil {
			return false
		}
		want := math.Max(sum, soloDur)
		return math.Abs(ms-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFIFOWithinResourceByReadyTime(t *testing.T) {
	// b becomes ready later than c; both on gpu; c (ready at 0) runs
	// first even though b was submitted first.
	e := New()
	slow := e.Add("slow", "cpu", 5, TagOptim)
	b := e.Add("b", "gpu", 1, TagCompute)
	b.After(slow)
	c := e.Add("c", "gpu", 1, TagCompute)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Start != 0 {
		t.Errorf("c should start at 0, got %v", c.Start)
	}
	if b.Start != 5 {
		t.Errorf("b should start when ready at 5, got %v", b.Start)
	}
}
