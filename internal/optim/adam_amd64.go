package optim

import "superoffload/internal/cpuid"

// useAVX2 selects the assembly leaf in adam_amd64.s. The CPU decides, once:
// the leaf and the Go loop give the same bits.
var useAVX2 = cpuid.AVX2()

// graceAdamLeaf steps the longest prefix of whole 8-element blocks with
// the AVX2 leaf and returns its length, leaving the rest to graceAdamGo;
// without AVX2 it steps nothing.
func graceAdamLeaf(k *adamScalars, dp, dm, dv, p, g []float32, gs float32, sm, sv []float32) int {
	if !useAVX2 {
		return 0
	}
	return graceAdamAVX2(k, dp, dm, dv, p, g, gs, sm, sv)
}

// graceAdamAVX2 is graceAdamLeaf on any amd64 CPU with AVX2. Every operand
// is cut to p's prefix first, so a short one panics here instead of being
// read or written past its end in the leaf.
func graceAdamAVX2(k *adamScalars, dp, dm, dv, p, g []float32, gs float32, sm, sv []float32) int {
	n := len(p) &^ 7
	if n == 0 {
		return 0
	}
	dp, dm, dv, p, g, sm, sv = dp[:n], dm[:n], dv[:n], p[:n], g[:n], sm[:n], sv[:n]
	adamBlocks(&dp[0], &dm[0], &dv[0], &p[0], &g[0], &sm[0], &sv[0], n, gs,
		k.b1, k.ob1, k.b2, k.ob2, k.stepSize, k.invBc2s, k.eps, k.wd)
	return n
}

//go:noescape
func adamBlocks(dp, dm, dv, p, grad, sm, sv *float32, n int, gs, b1, ob1, b2, ob2, stepSize, invBc2s, eps, wd float32)
