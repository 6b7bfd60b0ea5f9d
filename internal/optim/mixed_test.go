package optim

import (
	"math"
	"testing"
)

// exponentAllOnes reports whether any element is NaN or ±Inf by its bits:
// the exponent field all ones.
func exponentAllOnes(g []float32) bool {
	for _, x := range g {
		if math.Float32bits(x)&0x7F800000 == 0x7F800000 {
			return true
		}
	}
	return false
}

// TestSumSquaresFlagsBad: the verdict's NaN/Inf flag is read off the sum
// of squares, !(SumSquares(g) <= MaxFloat64), and must equal the
// exponent-all-ones scan on every input: each special value placed at the
// head, middle or tail of a ragged slice of lengths 0–33 over each finite
// filler, and a slice long enough that only overflow could make it
// disagree.
func TestSumSquaresFlagsBad(t *testing.T) {
	bits := func(b uint32) float32 { return math.Float32frombits(b) }
	specials := []float32{
		bits(0x7FC00000), // quiet NaN
		bits(0x7F800001), // signalling NaN
		bits(0xFFC00123), // quiet NaN with the sign bit set
		bits(0xFF800001), // signalling NaN with the sign bit set
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32,
		bits(0x007FFFFF), // the largest denormal
		bits(0x80000003), // a negative denormal
		0, float32(math.Copysign(0, -1)),
		1, -2.5e-3,
	}
	flagged := func(g []float32) bool { return !(SumSquares(g) <= math.MaxFloat64) }
	for _, fill := range specials {
		if exponentAllOnes([]float32{fill}) {
			continue
		}
		for n := 0; n <= 33; n++ {
			g := make([]float32, n)
			for i := range g {
				g[i] = fill
			}
			if flagged(g) {
				t.Errorf("len %d of %g: clean slice flagged", n, fill)
			}
			if n == 0 {
				continue
			}
			for _, at := range []int{0, n / 2, n - 1} {
				for _, x := range specials {
					g[at] = x
					if got, want := flagged(g), exponentAllOnes(g); got != want {
						t.Errorf("len %d of %g with %#08x at %d: flagged %v, scan %v",
							n, fill, math.Float32bits(x), at, got, want)
					}
				}
				g[at] = fill
			}
		}
	}
	huge := make([]float32, 1<<20)
	for i := range huge {
		huge[i] = math.MaxFloat32
	}
	if s := SumSquares(huge); flagged(huge) {
		t.Errorf("2^20 × MaxFloat32 summed to %g: a finite slice flagged", s)
	}
}
