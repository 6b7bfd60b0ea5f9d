// Package optim implements the optimizer stack the paper builds and
// compares (§4.6, Table 3): a naive per-element Adam standing in for
// PyTorch's native CPU optimizer, a blocked-parallel CPU-Adam mirroring
// DeepSpeed's x86 design, and GraceAdam — the paper's ARM-tuned kernel —
// reproduced with the same optimization hierarchy (one fused pass that
// also applies the gradient scale, per-core parallelism on large shards,
// a vector inner loop, fused bias correction): an 8-wide AVX2 leaf on
// amd64, the counterpart of the paper's SVE kernel, and a
// register-resident unrolled Go loop elsewhere, the two bit-identical.
// It also provides the global-norm clipping, NaN/Inf scanning, and the
// out-of-place step (GraceAdamTo) whose untouched source is the rollback
// point speculation-then-validation needs (§4.4).
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

// CPUAdam is the DeepSpeed-style blocked kernel: fused single pass,
// parallel across cores on large shards — but its inner loop is the x86
// SIMD algorithm translated element-by-element, which on a non-AVX target
// runs scalar with per-element double-precision upconversion (the
// "CPU-Adam" row of Table 3: good, but leaves throughput behind).
func CPUAdam(cfg Config, p, g []float32, s *State, t int) {
	acrossCores(cpuAdam, cfg, p, s, p, g, 1, s, t)
}

// cpuAdam has no fused gradient scale: CPUAdam passes 1.
func cpuAdam(cfg Config, dp []float32, ds *State, p, g []float32, _ float32, s *State, t int) {
	stepSize, bc2s := biasCorr(cfg, t)
	wd := cfg.LR * cfg.WeightDecay
	for i := range p {
		// Scalar fallback of the AVX kernel: everything in
		// float64, like _mm256 lanes emulated one at a time.
		m := cfg.Beta1*float64(s.M[i]) + (1-cfg.Beta1)*float64(g[i])
		v := cfg.Beta2*float64(s.V[i]) + (1-cfg.Beta2)*float64(g[i])*float64(g[i])
		ds.M[i] = float32(m)
		ds.V[i] = float32(v)
		den := math.Sqrt(v)/bc2s + cfg.Eps
		up := stepSize * m / den
		x := float64(p[i]) - up
		if wd != 0 {
			x -= wd * float64(p[i])
		}
		dp[i] = float32(x)
	}
}

// GraceAdam is the paper's optimized kernel: one fused pass, core-level
// parallelism on large shards, and a vector inner loop —
// on amd64 an 8-wide AVX2 leaf (adam_amd64.s), the counterpart of the
// SVE svmla/svsqrt pipeline, and elsewhere a 4-way unrolled Go loop whose
// accumulators stay in registers. All arithmetic stays in fp32, and both
// paths run the same IEEE operations in the same order, so they give the
// same bits.
func GraceAdam(cfg Config, p, g []float32, s *State, t int) { GraceAdamTo(cfg, p, s, p, g, 1, s, t) }

// GraceAdamTo is GraceAdam out of place: it reads params p and moments s
// and writes the stepped ones to dp and ds, which must be p and s or not
// overlap them. Each element sees the same operations either way. Unless
// gs is 1, the gradients are first scaled in place, g[i] = g[i]·gs
// rounded to fp32, and the
// step reads the scaled values; the AVX2 leaf does this in the step's own
// pass over g.
func GraceAdamTo(cfg Config, dp []float32, ds *State, p, g []float32, gs float32, s *State, t int) {
	acrossCores(graceAdam, cfg, dp, ds, p, g, gs, s, t)
}

// adamScalars are the fp32 factors of one GraceAdam step, shared by every
// element.
type adamScalars struct {
	b1, ob1, b2, ob2, stepSize, invBc2s, eps, wd float32
}

func newAdamScalars(cfg Config, t int) adamScalars {
	stepSize, bc2s := biasCorr(cfg, t)
	return adamScalars{
		b1:       float32(cfg.Beta1),
		ob1:      float32(1 - cfg.Beta1),
		b2:       float32(cfg.Beta2),
		ob2:      float32(1 - cfg.Beta2),
		stepSize: float32(stepSize),
		invBc2s:  float32(1 / bc2s),
		eps:      float32(cfg.Eps),
		wd:       float32(cfg.LR * cfg.WeightDecay),
	}
}

func graceAdam(cfg Config, dp []float32, ds *State, p, g []float32, gs float32, s *State, t int) {
	k := newAdamScalars(cfg, t)
	n := len(p)
	dp, g, sm, sv, dm, dv := dp[:n], g[:n], s.M[:n], s.V[:n], ds.M[:n], ds.V[:n]
	i := graceAdamLeaf(&k, dp, dm, dv, p, g, gs, sm, sv)
	graceAdamGo(&k, dp[i:], dm[i:], dv[i:], p[i:], g[i:], gs, sm[i:], sv[i:])
}

// graceAdamGo is GraceAdam's contract: the gradient scale as its own pass,
// then the step as a 4-way unrolled loop. It is the kernel where there is
// no leaf and the leaf's ragged tail where there is one.
func graceAdamGo(k *adamScalars, dp, dm, dv, p, g []float32, gs float32, sm, sv []float32) {
	b1, ob1, b2, ob2 := k.b1, k.ob1, k.b2, k.ob2
	stepSize, invBc2s, eps, wd := k.stepSize, k.invBc2s, k.eps, k.wd

	// Every operand cut to one length lets the compiler drop most of the
	// per-element bounds checks.
	n := len(p)
	dp, g, sm, sv, dm, dv = dp[:n], g[:n], sm[:n], sv[:n], dm[:n], dv[:n]
	if gs != 1 {
		for i := range g {
			g[i] *= gs
		}
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		g0, g1, g2, g3 := g[i], g[i+1], g[i+2], g[i+3]
		m0 := b1*sm[i] + ob1*g0
		m1 := b1*sm[i+1] + ob1*g1
		m2 := b1*sm[i+2] + ob1*g2
		m3 := b1*sm[i+3] + ob1*g3
		v0 := b2*sv[i] + ob2*g0*g0
		v1 := b2*sv[i+1] + ob2*g1*g1
		v2 := b2*sv[i+2] + ob2*g2*g2
		v3 := b2*sv[i+3] + ob2*g3*g3
		dm[i], dm[i+1], dm[i+2], dm[i+3] = m0, m1, m2, m3
		dv[i], dv[i+1], dv[i+2], dv[i+3] = v0, v1, v2, v3
		dp[i] = p[i] - (stepSize*m0/(sqrt32(v0)*invBc2s+eps) + wd*p[i])
		dp[i+1] = p[i+1] - (stepSize*m1/(sqrt32(v1)*invBc2s+eps) + wd*p[i+1])
		dp[i+2] = p[i+2] - (stepSize*m2/(sqrt32(v2)*invBc2s+eps) + wd*p[i+2])
		dp[i+3] = p[i+3] - (stepSize*m3/(sqrt32(v3)*invBc2s+eps) + wd*p[i+3])
	}
	for ; i < n; i++ {
		gg := g[i]
		m := b1*sm[i] + ob1*gg
		v := b2*sv[i] + ob2*gg*gg
		dm[i], dv[i] = m, v
		dp[i] = p[i] - (stepSize*m/(sqrt32(v)*invBc2s+eps) + wd*p[i])
	}
}

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// fanOutElems is the shard size from which a kernel is cut across cores;
// below it the kernel runs on its caller and allocates nothing. GraceAdam
// on the two-vCPU bench host, fanned out against serial, medians of 10–15
// runs: with one caller on idle cores 2¹⁶ elements read level (283 vs
// 263–298 µs), 2¹⁸ 0.67–0.96 vs 1.07–1.30 ms in one round and 1.2–1.8 vs
// 1.0 ms in another, 2²⁰ 3.2–3.5 vs 4.5–4.9 ms (1.08× in the other round),
// 2²² 15.5–16.5 vs 18.9–21.8 ms; with two callers at once (two ranks, the
// cores already full) 2¹⁸ 1.30 vs 1.19 ms, 2²⁰ 5.6 vs 4.8 ms, 2²² level.
// The gate sits at the first size where fan-out won every single-caller
// round; the engines' buckets (2¹⁴–2¹⁶ elements) are far below it, where a
// goroutine and a closure per chunk plus a WaitGroup per bucket per step
// bought nothing.
const fanOutElems = 1 << 20

// kernel is a serial Adam body reading p/s and g scaled by gs, and
// writing dp/ds.
type kernel func(cfg Config, dp []float32, ds *State, p, g []float32, gs float32, s *State, t int)

// acrossCores runs a serial kernel over the shard: on its caller below
// fanOutElems, otherwise as one goroutine per core over contiguous
// sub-shards (destination and source at the same offsets). Every element's
// arithmetic is its own, so the cut changes no bits; it falls at multiples
// of 8 only so that every chunk but the last is whole vector blocks.
func acrossCores(k kernel, cfg Config, dp []float32, ds *State, p, g []float32, gs float32, s *State, t int) {
	n, workers := len(p), runtime.GOMAXPROCS(0)
	if n < fanOutElems || workers == 1 {
		k(cfg, dp, ds, p, g, gs, s, t)
		return
	}
	chunk := (n/workers + 7) &^ 7
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			k(cfg, dp[lo:hi], &State{M: ds.M[lo:hi], V: ds.V[lo:hi]},
				p[lo:hi], g[lo:hi], gs, &State{M: s.M[lo:hi], V: s.V[lo:hi]}, t)
		}()
	}
	wg.Wait()
}
