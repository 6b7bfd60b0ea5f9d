package optim

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"superoffload/internal/tensor"
)

func randVecs(seed uint64, n int) (p, g []float32) {
	rng := tensor.NewRNG(seed)
	p = make([]float32, n)
	g = make([]float32, n)
	for i := range p {
		p[i] = rng.NormFloat32()
		g[i] = rng.NormFloat32() * 0.1
	}
	return
}

// refAdam is a float64 reference implementation.
func refAdam(cfg Config, p, g []float64, m, v []float64, t int) {
	bc1 := 1 - math.Pow(cfg.Beta1, float64(t))
	bc2 := 1 - math.Pow(cfg.Beta2, float64(t))
	for i := range p {
		m[i] = cfg.Beta1*m[i] + (1-cfg.Beta1)*g[i]
		v[i] = cfg.Beta2*v[i] + (1-cfg.Beta2)*g[i]*g[i]
		mh := m[i] / bc1
		vh := v[i] / bc2
		p[i] -= cfg.LR*mh/(math.Sqrt(vh)+cfg.Eps) + cfg.LR*cfg.WeightDecay*p[i]
	}
}

func runImplVsRef(t *testing.T, impl Impl, name string, steps int, tol float64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WeightDecay = 0.01
	const n = 1537 // odd size: exercises unrolled tails
	p32, g32 := randVecs(42, n)
	s := NewState(n)

	p64 := make([]float64, n)
	m64 := make([]float64, n)
	v64 := make([]float64, n)
	for i := range p32 {
		p64[i] = float64(p32[i])
	}
	g64 := make([]float64, n)

	rng := tensor.NewRNG(77)
	for step := 1; step <= steps; step++ {
		for i := range g32 {
			g32[i] = rng.NormFloat32() * 0.1
			g64[i] = float64(g32[i])
		}
		s.Step = step
		impl(cfg, p32, g32, s, step)
		refAdam(cfg, p64, g64, m64, v64, step)
	}
	for i := range p32 {
		if d := math.Abs(float64(p32[i]) - p64[i]); d > tol {
			t.Fatalf("%s: param %d diverged by %g after %d steps", name, i, d, steps)
		}
	}
}

func TestNaiveAdamMatchesReference(t *testing.T) { runImplVsRef(t, NaiveAdam, "naive", 20, 2e-4) }
func TestCPUAdamMatchesReference(t *testing.T)   { runImplVsRef(t, CPUAdam, "cpu", 20, 2e-4) }
func TestGraceAdamMatchesReference(t *testing.T) { runImplVsRef(t, GraceAdam, "grace", 20, 2e-4) }

// TestGraceAdamBucketStepAllocatesNothing pins the kernel to its caller at
// an engine bucket's size: no goroutine, closure or WaitGroup per step.
// Counted from MemStats with two Ps, because testing.AllocsPerRun drops to
// one P, where no size ever fanned out.
func TestGraceAdamBucketStepAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, steps = 1 << 16, 10
	p, g := randVecs(3, n)
	s := NewState(n)
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= steps; i++ {
		GraceAdam(cfg, p, g, s, i)
	}
	runtime.ReadMemStats(&after)
	if a := after.Mallocs - before.Mallocs; a != 0 {
		t.Errorf("GraceAdam on %d elements: %d allocations over %d steps, want 0", n, a, steps)
	}
}

// TestGraceAdamOutOfPlaceMatchesInPlace: GraceAdamTo into fresh
// destination buffers gives the bits the in-place GraceAdam gives on p, m
// and v, and leaves its source alone — over the 4-way body and its tail,
// with and without weight decay, and at a size that fans out across two
// cores, where destination and source must be cut at the same offsets.
func TestGraceAdamOutOfPlaceMatchesInPlace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, n := range []int{1, 3, 4, 5, 4099, fanOutElems + 7} {
		for _, wd := range []float64{0, 0.01} {
			cfg := DefaultConfig()
			cfg.WeightDecay = wd
			p, g := randVecs(uint64(n), n)
			s := NewState(n)
			for i := range g {
				s.M[i], s.V[i] = 0.5*g[i], g[i]*g[i]
			}
			clone := func() ([]float32, *State) {
				return slices.Clone(p), &State{M: slices.Clone(s.M), V: slices.Clone(s.V)}
			}
			inP, inS := clone()
			GraceAdam(cfg, inP, g, inS, 3)
			srcP, srcS := clone()
			dstP, dstS := make([]float32, n), NewState(n)
			GraceAdamTo(cfg, dstP, dstS, srcP, g, 1, srcS, 3)
			for i := range p {
				if math.Float32bits(dstP[i]) != math.Float32bits(inP[i]) ||
					math.Float32bits(dstS.M[i]) != math.Float32bits(inS.M[i]) ||
					math.Float32bits(dstS.V[i]) != math.Float32bits(inS.V[i]) {
					t.Fatalf("n=%d wd=%v: element %d out of place (%v, %v, %v), in place (%v, %v, %v)",
						n, wd, i, dstP[i], dstS.M[i], dstS.V[i], inP[i], inS.M[i], inS.V[i])
				}
			}
			if !slices.Equal(srcP, p) || !slices.Equal(srcS.M, s.M) || !slices.Equal(srcS.V, s.V) {
				t.Fatalf("n=%d wd=%v: stepping out of place wrote its source", n, wd)
			}
		}
	}
}

func TestAllImplsAgreeProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint16, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		p1, g := randVecs(uint64(seed), n)
		p2 := append([]float32(nil), p1...)
		p3 := append([]float32(nil), p1...)
		s1, s2, s3 := NewState(n), NewState(n), NewState(n)
		NaiveAdam(cfg, p1, g, s1, 1)
		CPUAdam(cfg, p2, g, s2, 1)
		GraceAdam(cfg, p3, g, s3, 1)
		for i := 0; i < n; i++ {
			if math.Abs(float64(p1[i]-p2[i])) > 1e-5 || math.Abs(float64(p1[i]-p3[i])) > 1e-5 {
				return false
			}
			if math.Abs(float64(s1.M[i]-s3.M[i])) > 1e-6 || math.Abs(float64(s1.V[i]-s3.V[i])) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = ||x - c||² with each implementation; all should
	// reach the optimum.
	for name, impl := range map[string]Impl{"naive": NaiveAdam, "cpu": CPUAdam, "grace": GraceAdam} {
		cfg := DefaultConfig()
		cfg.LR = 0.05
		n := 64
		target := make([]float32, n)
		for i := range target {
			target[i] = float32(i%7) - 3
		}
		p := make([]float32, n)
		g := make([]float32, n)
		s := NewState(n)
		for step := 1; step <= 800; step++ {
			for i := range g {
				g[i] = 2 * (p[i] - target[i])
			}
			s.Step = step
			impl(cfg, p, g, s, step)
		}
		var maxErr float64
		for i := range p {
			if d := math.Abs(float64(p[i] - target[i])); d > maxErr {
				maxErr = d
			}
		}
		if maxErr > 0.05 {
			t.Errorf("%s: did not converge, max err %g", name, maxErr)
		}
	}
}

func TestGlobalNormAndClip(t *testing.T) {
	shards := [][]float32{{3, 0}, {0, 4}}
	if gn := GlobalNorm(shards); math.Abs(gn-5) > 1e-9 {
		t.Fatalf("global norm = %v", gn)
	}
	if s := ClipScale(5, 10); s != 1.0 {
		t.Errorf("no clip expected, got %v", s)
	}
	if s := ClipScale(5, 1); math.Abs(s-0.2) > 1e-12 {
		t.Errorf("clip scale = %v, want 0.2", s)
	}
}

func TestClipScaleProperty(t *testing.T) {
	f := func(a, b float32) bool {
		gn := math.Abs(float64(a)) + 0.001
		mx := math.Abs(float64(b)) + 0.001
		s := ClipScale(gn, mx)
		return gn*s <= mx*(1+1e-12)+1e-9 && s <= 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixedShardStepFromAdvancesMaster(t *testing.T) {
	p := []float32{1, 2, 3, 4}
	sh := NewMixedShard(p)
	g := []float32{1, 1, 1, 1}
	cfg := DefaultConfig()
	cfg.LR = 0.1
	sh.StepFrom(sh, cfg, g, 1)
	if sh.State.Step != 1 {
		t.Errorf("step = %d", sh.State.Step)
	}
	for i := range p {
		if sh.Master[i] >= p[i] {
			t.Errorf("param %d did not decrease: %v", i, sh.Master[i])
		}
	}
}

func TestLossScaler(t *testing.T) {
	s := NewLossScaler()
	if s.Scale != 65536 {
		t.Fatalf("initial scale %v", s.Scale)
	}
	if !s.Update(true) {
		t.Error("overflow should skip")
	}
	if s.Scale != 32768 {
		t.Errorf("scale after overflow = %v", s.Scale)
	}
	s.GrowthInterval = 3
	for i := 0; i < 3; i++ {
		if s.Update(false) {
			t.Error("good step should not skip")
		}
	}
	if s.Scale != 65536 {
		t.Errorf("scale after growth = %v", s.Scale)
	}
	// Floor.
	s.Scale = 1
	s.Update(true)
	if s.Scale < s.MinScale {
		t.Errorf("scale fell below min: %v", s.Scale)
	}
}

func TestSnapshotRestoreBitExact(t *testing.T) {
	p, g := randVecs(7, 513)
	sh := NewMixedShard(p)
	cfg := DefaultConfig()
	snap := TakeSnapshot(nil, sh)
	sh.StepFrom(sh, cfg, g, 1)
	snap.Restore(sh)
	for i := range p {
		if sh.Master[i] != p[i] {
			t.Fatalf("restore not bit-exact at %d", i)
		}
		if sh.State.M[i] != 0 || sh.State.V[i] != 0 {
			t.Fatalf("moments not restored at %d", i)
		}
	}
	if sh.State.Step != 0 {
		t.Errorf("step not restored: %d", sh.State.Step)
	}
}

func TestSnapshotReuseNoRealloc(t *testing.T) {
	p, _ := randVecs(9, 128)
	sh := NewMixedShard(p)
	s1 := TakeSnapshot(nil, sh)
	s2 := TakeSnapshot(s1, sh)
	if &s1.Master[0] != &s2.Master[0] {
		t.Error("snapshot should reuse buffers")
	}
}

// TestReExecuteClipped pins what stv.Bucket's clip path composes: restore
// the snapshot, then step with the gradients scaled inside the step —
// bit-identical to a fresh shard stepped with them scaled beforehand, and
// the step leaves the scaled gradients behind.
func TestReExecuteClipped(t *testing.T) {
	cfg := DefaultConfig()
	n := 64
	p, g := randVecs(3, n)
	sh := NewMixedShard(p)
	snap := TakeSnapshot(nil, sh)
	sh.StepFrom(sh, cfg, g, 1) // speculative, unclipped

	// Reference: fresh shard stepped with clipped gradients directly.
	ref := NewMixedShard(p)
	clip := 0.5
	scaled := make([]float32, n)
	for i := range g {
		scaled[i] = g[i] * float32(clip)
	}
	ref.StepFrom(ref, cfg, scaled, 1)

	snap.Restore(sh)
	sh.StepFrom(sh, cfg, g, float32(clip))
	for i := range p {
		if sh.Master[i] != ref.Master[i] {
			t.Fatalf("re-executed step differs from direct clipped step at %d", i)
		}
		if g[i] != scaled[i] {
			t.Fatalf("gradient %d after the scaled step = %v, want %v", i, g[i], scaled[i])
		}
	}
	if sh.State.Step != 1 {
		t.Errorf("step = %d after re-execution", sh.State.Step)
	}
}

// ---- Table 3: the three Adam kernels, measured (b.SetBytes reports GB/s) ----

func benchAdam(b *testing.B, impl Impl) {
	const n = 4 << 20
	p, g := randVecs(5, n)
	s := NewState(n)
	cfg := DefaultConfig()
	b.SetBytes(int64(n) * 16) // p, g, m, v fp32 traffic per step
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		impl(cfg, p, g, s, i+1)
	}
}

func BenchmarkTable3_PTCPU(b *testing.B)     { benchAdam(b, NaiveAdam) }
func BenchmarkTable3_CPUAdam(b *testing.B)   { benchAdam(b, CPUAdam) }
func BenchmarkTable3_GraceAdam(b *testing.B) { benchAdam(b, GraceAdam) }
