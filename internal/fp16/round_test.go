package fp16

import (
	"math"
	"testing"
)

// roundPath is one of Round's kernels, called by name so that each is
// tested on any host: the Go loop always, the leaf where the CPU has one.
type roundPath struct {
	name  string
	round func(dst, src []float32)
}

func roundPaths() []roundPath {
	paths := []roundPath{{"Go loop", roundGo}}
	if leaf := leafRound(); leaf != nil {
		paths = append(paths, roundPath{"F16C leaf", leaf})
	}
	return paths
}

// TestRoundSpecialValues pins what each Round path makes of the inputs
// where a hardware conversion and the Go loop could part: NaNs quiet and
// signalling with their payload in the ten kept mantissa bits or only in
// the dropped ones (the Go loop keeps a signalling NaN signalling; F16C
// would quiet it), ±Inf, the overflow edge around 65504 and its tie 65520,
// and the subnormal edges 2⁻¹⁴ and 2⁻²⁴ with their ties. Each value sits
// at every position of two 8-element blocks and a ragged tail, among
// ordinary values, in and out of place.
func TestRoundSpecialValues(t *testing.T) {
	f := func(x float64) uint32 { return math.Float32bits(float32(x)) }
	cases := []struct {
		name    string
		in, out uint32
	}{
		{"qNaN, payload kept", 0x7FC02000, 0x7FC02000},
		{"qNaN, payload dropped", 0x7FC00001, 0x7FC00000},
		{"sNaN, payload kept", 0x7F802000, 0x7F802000},
		{"sNaN, payload in both", 0x7FA00FFF, 0x7FA00000},
		{"sNaN, payload dropped", 0x7F800001, 0x7FC00000},
		{"-sNaN, payload kept", 0xFF806000, 0xFF806000},
		{"-qNaN, payload dropped", 0xFFC01FFF, 0xFFC00000},
		{"+Inf", f32Inf, f32Inf},
		{"-Inf", 0xFF800000, 0xFF800000},
		{"65504, the largest finite", f(65504), f(65504)},
		{"below the overflow tie", f(65520) - 1, f(65504)},
		{"65520, the overflow tie", f(65520), f32Inf},
		{"-65520", f(-65520), 0xFF800000},
		{"above the overflow tie", f(65520) + 1, f32Inf},
		{"2⁻¹⁴, the smallest normal", f(0x1p-14), f(0x1p-14)},
		{"the largest subnormal", f(0x1p-14 - 0x1p-24), f(0x1p-14 - 0x1p-24)},
		{"tie up to 2⁻¹⁴", f(0x1p-14 - 0x1p-25), f(0x1p-14)},
		{"2⁻²⁴, the smallest subnormal", f(0x1p-24), f(0x1p-24)},
		{"2⁻²⁵, the tie to zero", f(0x1p-25), 0},
		{"-2⁻²⁵", f(-0x1p-25), 0x80000000},
		{"above the tie to zero", f(0x1p-25) + 1, f(0x1p-24)},
		{"1.5·2⁻²⁴, the tie up to even", f(0x1.8p-24), f(0x1p-23)},
		{"2.5·2⁻²⁴, the tie down to even", f(0x1.4p-23), f(0x1p-23)},
	}
	const n = 19 // two whole blocks and a tail of 3
	filler := func(i int) float32 { return float32(i+1) * 0.1 }
	for _, path := range roundPaths() {
		for _, c := range cases {
			for pos := range n {
				for _, inPlace := range []bool{false, true} {
					src, dst := make([]float32, n), make([]float32, n)
					for i := range src {
						src[i] = filler(i)
					}
					src[pos] = math.Float32frombits(c.in)
					if inPlace {
						dst = src
					}
					path.round(dst, src)
					for i, x := range dst {
						want := c.out
						if i != pos {
							want = math.Float32bits(FromFloat32(filler(i)).Float32())
						}
						if got := math.Float32bits(x); got != want {
							t.Fatalf("%s, %s at %d (in place %v): element %d = %#08x, want %#08x",
								path.name, c.name, pos, inPlace, i, got, want)
						}
					}
				}
			}
		}
	}
}
