package nn

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// geluScalar and geluGradScalar are the two-function GELU that
// geluForward replaced, kept verbatim as its differential reference: the
// fused form must reproduce both results bit for bit.
func geluScalar(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(geluK*(x+0.044715*x*x*x)))
}

func geluGradScalar(x float64) float64 {
	u := geluK * (x + 0.044715*x*x*x)
	t := math.Tanh(u)
	return 0.5*(1+t) + 0.5*x*(1-t*t)*geluK*(1+3*0.044715*x*x)
}

// requireAMD64 skips off amd64. Same bits between the fused and the
// two-function GELU holds where the compiler fuses no multiply-add; arm64
// may contract the two forms differently (ROADMAP.md, "One set of bits on
// every host"), and no arm64 run pins it.
func requireAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("the fused GELU is pinned to the two-function form on amd64 only, not %s", runtime.GOARCH)
	}
}

// sameBits compares float32 results bit for bit, any NaN equal to any NaN.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// geluU is the tanh argument GELU evaluates at x.
func geluU(x float32) float64 {
	v := float64(x)
	return geluK * (v + 0.044715*v*v*v)
}

// firstBits returns the smallest float32 bit pattern in [lo, hi] at which
// pred holds, for a pred that is false and then true over the range
// (positive patterns order like their values).
func firstBits(lo, hi uint32, pred func(float32) bool) uint32 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(math.Float32frombits(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// geluEdgeInputs lists the inputs where the arithmetic changes regime, in
// both signs: zeros, subnormals (the smallest negative ones give y = −0),
// infinities and NaNs, and ±2 ulps around each crossing — |u| reaching
// tanh's 0.625 branch point, tanh rounding to ±1 (for negative x, where
// 1+t becomes 0 and y falls from about −4e-16 straight to −0), and |u|
// passing tanh's own saturation cut (½·log 2¹²⁷).
func geluEdgeInputs() []float32 {
	const maxFinite = 0x7F7FFFFF
	crossings := []uint32{
		firstBits(0, maxFinite, func(x float32) bool { return geluU(x) >= 0.625 }),
		firstBits(0, maxFinite, func(x float32) bool { return math.Tanh(geluU(x)) == 1 }),
		firstBits(0, maxFinite, func(x float32) bool { return geluU(x) > 0.5*8.8029691931113054295988e+01 }),
	}
	bits := []uint32{
		0x00000000, 0x00000001, 0x00000002, 0x00000003, 0x007FFFFF, 0x00800000,
		math.Float32bits(1), maxFinite, 0x7F800000, 0x7FC00000, 0x7F800001, 0x7FFFFFFF,
	}
	for _, c := range crossings {
		for d := uint32(0); d <= 4; d++ {
			bits = append(bits, c-2+d)
		}
	}
	var xs []float32
	for _, b := range bits {
		xs = append(xs, math.Float32frombits(b), math.Float32frombits(b|0x80000000))
	}
	return xs
}

// TestGeluMatchesTwoFunctionForm runs gelu and geluBackward — the kernels
// the pass calls — over every 4099th float32 bit pattern plus the edge
// inputs, and requires the forward's y and the backward's dx at dy = 1
// (which is gelu′ itself) to carry the reference's bits.
func TestGeluMatchesTwoFunctionForm(t *testing.T) {
	requireAMD64(t)
	xs := geluEdgeInputs()
	for b := uint64(0); b < 1<<32; b += 4099 {
		xs = append(xs, math.Float32frombits(uint32(b)))
	}
	var ws workspace
	x := ws.get(1, len(xs))
	copy(x.Data, xs)
	y := gelu(&ws, x)
	dy := ws.get(1, len(xs))
	dy.Fill(1)
	dx := geluBackward(&ws, dy, x)
	bad := 0
	for i, v := range xs {
		wantY, wantG := float32(geluScalar(float64(v))), float32(geluGradScalar(float64(v)))
		if sameBits(y.Data[i], wantY) && sameBits(dx.Data[i], wantG) {
			continue
		}
		if bad++; bad <= 5 {
			t.Errorf("x = %v (%#08x): y %v, gelu′ %v; reference %v, %v",
				v, math.Float32bits(v), y.Data[i], dx.Data[i], wantY, wantG)
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d inputs differ from the two-function GELU", bad, len(xs))
	}
}

// TestGeluLeafMatchesGoLoop requires the leaf to give geluGo's y and
// gelu′ bit for bit, NaN payloads included. Each edge input and special
// value (quiet and signalling NaNs with payload bits, ±Inf, ±0,
// subnormals) sits at every lane of two 4-element blocks and a tail among
// ordinary values; random draws from σ = 0.01 to 1e10 run at lengths 0–9
// and 32 771 from odd offsets. Every case runs in place (g over x, as gelu
// calls it) and out of place.
func TestGeluLeafMatchesGoLoop(t *testing.T) {
	leaf := leafGelu()
	if leaf == nil {
		t.Skip("no GELU leaf on this CPU or build")
	}
	check := func(name string, xs []float32) {
		t.Helper()
		for _, inPlace := range []bool{false, true} {
			wantY, wantG := make([]float32, len(xs)), make([]float32, len(xs))
			geluGo(wantY, wantG, xs)
			y, g := make([]float32, len(xs)), make([]float32, len(xs))
			x := append([]float32(nil), xs...)
			if inPlace {
				g = x
			}
			leaf(y, g, x)
			for i, v := range xs {
				if math.Float32bits(y[i]) != math.Float32bits(wantY[i]) || math.Float32bits(g[i]) != math.Float32bits(wantG[i]) {
					t.Fatalf("%s (in place %v), element %d of %d, x = %#08x: leaf y %#08x gelu′ %#08x, Go loop %#08x %#08x",
						name, inPlace, i, len(xs), math.Float32bits(v), math.Float32bits(y[i]), math.Float32bits(g[i]),
						math.Float32bits(wantY[i]), math.Float32bits(wantG[i]))
				}
			}
		}
	}

	rng := rand.New(rand.NewPCG(48, 4))
	specials := geluEdgeInputs()
	for _, b := range []uint32{
		0x7FC00001, 0x7FD55555, 0x7FFFFFFF, 0xFFC12345, // quiet NaNs with payloads
		0x7F800001, 0x7FA00000, 0x7FBFFFFF, 0xFF812345, // signalling NaNs
		0x00000001, 0x00400000, 0x807FFFFF, 0x80000001, // subnormals
	} {
		specials = append(specials, math.Float32frombits(b))
	}
	const n = 2*4 + 3
	for _, v := range specials {
		for pos := range n {
			xs := make([]float32, n)
			for i := range xs {
				xs[i] = float32(rng.NormFloat64())
			}
			xs[pos] = v
			check("special", xs)
		}
	}

	for _, sigma := range []float64{0.01, 0.1, 0.5, 1, 3, 10, 1e3, 1e5, 1e10} {
		buf := make([]float32, 32771+3)
		for i := range buf {
			buf[i] = float32(sigma * rng.NormFloat64())
		}
		for _, off := range []int{1, 3} {
			for length := range 10 {
				check("random", buf[off:off+length])
			}
			check("random", buf[off:off+32771])
		}
	}
}
