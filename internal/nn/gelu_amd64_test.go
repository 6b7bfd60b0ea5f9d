//go:build !purego

package nn

import (
	"math"
	"math/rand/v2"
	"testing"
)

// leafGelu is gelu's AVX2+FMA path called directly — whole blocks through
// the leaf, the rest through geluGo — or nil on a CPU without AVX2 and FMA.
func leafGelu() func(y, g, x []float32) {
	if !useGeluLeaf {
		return nil
	}
	return func(y, g, x []float32) {
		i := geluLeaf(y, g, x)
		geluGo(y[i:], g[i:], x[i:])
	}
}

// TestGeluLeafFloat64MatchesGeluForward holds the leaf's block, before its
// float32 rounding, to geluForward bit for bit. Rounding to float32 hides
// almost every one-ulp float64 difference, so this is the test that sees a
// changed operation anywhere in the sequence (an unfused or truncated
// step of math.Exp, a fused one in the GELU expressions, a cut moved by
// one comparison). Inputs: ±64 ulps around each of tanh's cuts in |u|,
// which at 0.625 include an x with |u| exactly 0.625 (no float32 has one);
// random draws from σ = 0.01 to 1e10; the float32 edge inputs; zeros,
// subnormals, infinities and NaNs with payloads.
func TestGeluLeafFloat64MatchesGeluForward(t *testing.T) {
	if !useGeluLeaf {
		t.Skip("no GELU leaf on this CPU")
	}
	u := func(v float64) float64 { return geluK * (v + 0.044715*v*v*v) }
	var xs []float64
	onCut := false
	for _, cut := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01} {
		lo, hi := 0.0, 100.0
		for range 200 {
			if m := (lo + hi) / 2; u(m) >= cut {
				hi = m
			} else {
				lo = m
			}
		}
		for d := int64(-64); d <= 64; d++ {
			v := math.Float64frombits(uint64(int64(math.Float64bits(hi)) + d))
			onCut = onCut || u(v) == 0.625
			xs = append(xs, v, -v)
		}
	}
	if !onCut {
		t.Fatal("no input has |u| = 0.625 exactly")
	}
	for _, v := range geluEdgeInputs() {
		xs = append(xs, float64(v))
	}
	for _, b := range []uint64{
		0, 1 << 63, 1, 0x000FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
		0x7FF8000000000001, 0xFFF8000000000123, 0x7FF0000000000001, 0x7FF4000000000000,
	} {
		xs = append(xs, math.Float64frombits(b))
	}
	rng := rand.New(rand.NewPCG(48, 64))
	for _, sigma := range []float64{0.01, 0.1, 0.5, 1, 3, 10, 1e3, 1e5, 1e10} {
		for range 4096 {
			xs = append(xs, sigma*rng.NormFloat64())
		}
	}
	for len(xs)%4 != 0 {
		xs = append(xs, 0)
	}
	y, g := make([]float64, len(xs)), make([]float64, len(xs))
	geluBlocks64(&y[0], &g[0], &xs[0], len(xs))
	bad := 0
	for i, v := range xs {
		wantY, wantG := geluForward(v)
		if math.Float64bits(y[i]) == math.Float64bits(wantY) && math.Float64bits(g[i]) == math.Float64bits(wantG) {
			continue
		}
		if bad++; bad <= 5 {
			t.Errorf("x = %v (%#016x): leaf y %#016x gelu′ %#016x, geluForward %#016x %#016x", v, math.Float64bits(v),
				math.Float64bits(y[i]), math.Float64bits(g[i]), math.Float64bits(wantY), math.Float64bits(wantG))
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d inputs differ from geluForward", bad, len(xs))
	}
}
