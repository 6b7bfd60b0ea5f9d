package optim

import (
	"math"
	"testing"
)

// TestGraceAdamDeterministic: the parallel tiled kernel must be bit-
// deterministic across runs — each element's arithmetic is independent, so
// goroutine scheduling cannot change results.
func TestGraceAdamDeterministic(t *testing.T) {
	const n = 100_000
	run := func() []float32 {
		p, g := randVecs(11, n)
		s := NewState(n)
		cfg := DefaultConfig()
		for step := 1; step <= 5; step++ {
			GraceAdam(cfg, p, g, s, step)
		}
		return p
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWeightDecayDirection(t *testing.T) {
	// Decoupled decay must shrink weights relative to the no-decay run.
	const n = 64
	p1, g := randVecs(3, n)
	for i := range p1 {
		p1[i] = 1.0 // uniform positive weights, zero-mean grads
		g[i] = 0
	}
	p2 := append([]float32(nil), p1...)
	s1, s2 := NewState(n), NewState(n)
	cfg := DefaultConfig()
	cfgWD := cfg
	cfgWD.WeightDecay = 0.1
	GraceAdam(cfg, p1, g, s1, 1)
	GraceAdam(cfgWD, p2, g, s2, 1)
	for i := range p1 {
		if p2[i] >= p1[i] {
			t.Fatalf("decay did not shrink weight %d: %v vs %v", i, p2[i], p1[i])
		}
	}
}

func TestZeroGradientsLeaveParamsAlmostStill(t *testing.T) {
	// With g = 0 and no decay, the update is 0/(0+eps) = 0.
	const n = 32
	p, _ := randVecs(5, n)
	orig := append([]float32(nil), p...)
	g := make([]float32, n)
	s := NewState(n)
	GraceAdam(DefaultConfig(), p, g, s, 1)
	for i := range p {
		if math.Abs(float64(p[i]-orig[i])) > 1e-7 {
			t.Fatalf("param %d moved with zero gradient: %v -> %v", i, orig[i], p[i])
		}
	}
}

func TestLossScalerCap(t *testing.T) {
	s := NewLossScaler()
	s.GrowthInterval = 1
	s.Scale = s.MaxScale
	s.Update(false)
	if s.Scale > s.MaxScale {
		t.Errorf("scale exceeded cap: %v", s.Scale)
	}
}

func TestGlobalNormEmptyAndSingle(t *testing.T) {
	if GlobalNorm(nil) != 0 {
		t.Error("empty norm")
	}
	if GlobalNorm([][]float32{{}}) != 0 {
		t.Error("empty shard norm")
	}
	if g := GlobalNorm([][]float32{{-7}}); math.Abs(g-7) > 1e-9 {
		t.Errorf("single-element norm: %v", g)
	}
}
