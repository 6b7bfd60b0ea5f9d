// Package optim implements the optimizer stack the paper builds and
// compares (§4.6, Table 3): a naive per-element Adam standing in for
// PyTorch's native CPU optimizer, a blocked-parallel CPU-Adam mirroring
// DeepSpeed's x86 design, and GraceAdam — the paper's ARM-tuned kernel —
// reproduced with the same optimization hierarchy in Go (cache-sized
// tiles, per-core parallelism, register-resident unrolled inner loops,
// fused bias correction). It also provides the global-norm clipping,
// NaN/Inf scanning, and exact rollback primitives the
// speculation-then-validation scheme requires (§4.4).
package optim

import (
	"math"
	"runtime"
	"sync"
)

// Config is the Adam hyperparameter set.
type Config struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64 // decoupled (AdamW-style)
}

// DefaultConfig matches the common GPT pre-training recipe.
func DefaultConfig() Config {
	return Config{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// State holds the two Adam moments for one contiguous parameter shard plus
// the shared step counter. Moments live in fp32, like the paper's
// CPU-resident optimizer states.
type State struct {
	M, V []float32
	Step int
}

// NewState allocates zeroed moments for n parameters.
func NewState(n int) *State {
	return &State{M: make([]float32, n), V: make([]float32, n)}
}

// Impl is a fused Adam step kernel: updates params p in place from grads g
// using state s at step t (1-based, already incremented by the caller).
type Impl func(cfg Config, p, g []float32, s *State, t int)

// biasCorr precomputes the step-dependent scalars shared by all kernels.
func biasCorr(cfg Config, t int) (stepSize, bc2sqrt float64) {
	bc1 := 1 - math.Pow(cfg.Beta1, float64(t))
	bc2 := 1 - math.Pow(cfg.Beta2, float64(t))
	return cfg.LR / bc1, math.Sqrt(bc2)
}

// NaiveAdam mirrors an unfused framework-native CPU optimizer: five
// separate passes over memory (m update, v update, bias-corrected
// denominator, parameter update, weight decay), single-threaded, with a
// temporary allocation per step. This is the "PT-CPU" row of Table 3.
func NaiveAdam(cfg Config, p, g []float32, s *State, t int) {
	n := len(p)
	b1, b2 := float32(cfg.Beta1), float32(cfg.Beta2)
	for i := 0; i < n; i++ { // pass 1: momentum
		s.M[i] = b1*s.M[i] + (1-b1)*g[i]
	}
	for i := 0; i < n; i++ { // pass 2: variance
		s.V[i] = b2*s.V[i] + (1-b2)*g[i]*g[i]
	}
	denom := make([]float32, n) // pass 3: denominator (temp alloc)
	_, bc2s := biasCorr(cfg, t)
	for i := 0; i < n; i++ {
		denom[i] = float32(math.Sqrt(float64(s.V[i]))/bc2s) + float32(cfg.Eps)
	}
	stepSize, _ := biasCorr(cfg, t)
	for i := 0; i < n; i++ { // pass 4: parameter update
		p[i] -= float32(stepSize) * s.M[i] / denom[i]
	}
	if cfg.WeightDecay != 0 { // pass 5: decoupled decay
		wd := float32(cfg.LR * cfg.WeightDecay)
		for i := 0; i < n; i++ {
			p[i] -= wd * p[i]
		}
	}
}

// tileSize is the per-core working-set tile: small enough to stay resident
// in L1/L2 while the fused kernel makes its single pass (§4.6 "tiled
// processing approach divides parameter updates into cache-friendly
// chunks").
const tileSize = 4096

// CPUAdam is the DeepSpeed-style blocked kernel: fused single pass, tiled,
// parallel across cores — but its inner loop is the x86 SIMD algorithm
// translated element-by-element, which on a non-AVX target runs scalar
// with per-element double-precision upconversion (the "CPU-Adam" row of
// Table 3: good, but leaves throughput behind).
func CPUAdam(cfg Config, p, g []float32, s *State, t int) {
	stepSize, bc2s := biasCorr(cfg, t)
	wd := cfg.LR * cfg.WeightDecay
	parallelTiles(len(p), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Scalar fallback of the AVX kernel: everything in
			// float64, like _mm256 lanes emulated one at a time.
			m := cfg.Beta1*float64(s.M[i]) + (1-cfg.Beta1)*float64(g[i])
			v := cfg.Beta2*float64(s.V[i]) + (1-cfg.Beta2)*float64(g[i])*float64(g[i])
			s.M[i] = float32(m)
			s.V[i] = float32(v)
			den := math.Sqrt(v)/bc2s + cfg.Eps
			up := stepSize * m / den
			x := float64(p[i]) - up
			if wd != 0 {
				x -= wd * float64(p[i])
			}
			p[i] = float32(x)
		}
	})
}

// GraceAdam is the paper's optimized kernel reproduced in Go: one fused
// pass, cache tiles, core-level parallelism, and a 4-way unrolled inner
// loop whose accumulators stay in registers — the portable analogue of the
// SVE svmla/svsqrt vector pipeline. All arithmetic stays in fp32.
func GraceAdam(cfg Config, p, g []float32, s *State, t int) {
	stepSize64, bc2s := biasCorr(cfg, t)
	b1 := float32(cfg.Beta1)
	ob1 := float32(1 - cfg.Beta1)
	b2 := float32(cfg.Beta2)
	ob2 := float32(1 - cfg.Beta2)
	stepSize := float32(stepSize64)
	invBc2s := float32(1 / bc2s)
	eps := float32(cfg.Eps)
	wd := float32(cfg.LR * cfg.WeightDecay)

	parallelTiles(len(p), func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			g0, g1, g2, g3 := g[i], g[i+1], g[i+2], g[i+3]
			m0 := b1*s.M[i] + ob1*g0
			m1 := b1*s.M[i+1] + ob1*g1
			m2 := b1*s.M[i+2] + ob1*g2
			m3 := b1*s.M[i+3] + ob1*g3
			v0 := b2*s.V[i] + ob2*g0*g0
			v1 := b2*s.V[i+1] + ob2*g1*g1
			v2 := b2*s.V[i+2] + ob2*g2*g2
			v3 := b2*s.V[i+3] + ob2*g3*g3
			s.M[i], s.M[i+1], s.M[i+2], s.M[i+3] = m0, m1, m2, m3
			s.V[i], s.V[i+1], s.V[i+2], s.V[i+3] = v0, v1, v2, v3
			p[i] -= stepSize*m0/(sqrt32(v0)*invBc2s+eps) + wd*p[i]
			p[i+1] -= stepSize*m1/(sqrt32(v1)*invBc2s+eps) + wd*p[i+1]
			p[i+2] -= stepSize*m2/(sqrt32(v2)*invBc2s+eps) + wd*p[i+2]
			p[i+3] -= stepSize*m3/(sqrt32(v3)*invBc2s+eps) + wd*p[i+3]
		}
		for ; i < hi; i++ {
			gg := g[i]
			m := b1*s.M[i] + ob1*gg
			v := b2*s.V[i] + ob2*gg*gg
			s.M[i], s.V[i] = m, v
			p[i] -= stepSize*m/(sqrt32(v)*invBc2s+eps) + wd*p[i]
		}
	})
}

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// parallelTiles splits [0,n) into tileSize chunks distributed over
// GOMAXPROCS workers. Tiles are 4-aligned so the unrolled kernels keep
// their fast path.
func parallelTiles(n int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < tileSize || workers == 1 {
		f(0, n)
		return
	}
	chunk := (n/workers + 3) &^ 3
	if chunk < tileSize {
		chunk = tileSize
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
