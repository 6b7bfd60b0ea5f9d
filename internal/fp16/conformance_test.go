package fp16

// Conformance suite for the fp32→fp16 rounding kernels: every claim is
// checked against an independent float64 reference built on
// math.RoundToEven, plus the exhaustive bit-level round-trip. This is the
// suite that pins the subnormal tie-to-even fix (ties used to round to
// odd) and the batch-kernel ≡ scalar-kernel agreement.

import (
	"math"
	"math/rand"
	"testing"
)

// refFromFloat32 is the reference conversion: float64 arithmetic and
// math.RoundToEven, structured nothing like the production bit kernels.
func refFromFloat32(f float32) Num {
	v := float64(f)
	var sign Num
	if math.Signbit(v) {
		sign = signMask
	}
	if math.IsNaN(v) {
		// Payload rule mirrored from fromBits: keep the top ten mantissa
		// bits, quiet the result only if they are all zero.
		b := math.Float32bits(f)
		out := Num(expMask) | Num((b>>13)&fracMask)
		if out&fracMask == 0 {
			out |= 0x0200
		}
		return sign | out
	}
	a := math.Abs(v)
	if math.IsInf(a, 0) {
		return sign | PosInf
	}
	if a < 0x1p-14 {
		// Subnormal range: quantize at 2^-24. A round-up to 1024 lands on
		// the min-normal encoding, which is the correct neighbour.
		q := math.RoundToEven(a * 0x1p24)
		return sign | Num(uint16(q))
	}
	frac, exp := math.Frexp(a) // a = frac·2^exp, frac ∈ [0.5, 1)
	e := exp - 1
	q := math.RoundToEven(frac * 0x1p11) // 1.m mantissa scaled by 2^10
	if q == 2048 {
		q, e = 1024, e+1
	}
	if e > 15 {
		return sign | PosInf
	}
	return sign | Num(uint16(e+15))<<10 | (Num(uint16(q)) - 1024)
}

// TestExhaustiveRoundTripExact requires decode→encode to be the exact
// identity on all 65536 bit patterns — including every NaN payload, which
// the old kernel canonicalized.
func TestExhaustiveRoundTripExact(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		n := Num(i)
		if got := FromFloat32(n.Float32()); got != n {
			t.Fatalf("bits %#04x -> %v -> %#04x (not identity)", i, n.Float32(), got)
		}
	}
}

// TestSubnormalTieSweep sweeps k·2^-25: odd k are exact ties between
// adjacent subnormal quanta and must round to the even code. The seed
// kernel rounded these to odd.
func TestSubnormalTieSweep(t *testing.T) {
	for k := 0; k <= 4096; k++ {
		f := float32(k) * 0x1p-25
		for _, s := range []float32{f, -f} {
			want := refFromFloat32(s)
			if got := FromFloat32(s); got != want {
				t.Fatalf("k=%d (%v): got %#04x, want %#04x", k, s, got, want)
			}
		}
		if k%2 == 1 && k < 2048 {
			if got := FromFloat32(f); got&1 != 0 {
				t.Fatalf("tie k=%d rounded to odd code %#04x", k, got)
			}
		}
	}
	// The first tie concretely: 3·2^-25 sits halfway between subnormal
	// codes 1 and 2 and must choose 2 (even).
	if got := FromFloat32(3 * 0x1p-25); got != 0x0002 {
		t.Fatalf("3·2^-25 = %#04x, want 0x0002 (round half to even)", got)
	}
}

// TestSubnormalNormalBoundary walks fp32 neighbours of k·2^-14 across the
// subnormal→normal seam, where the carry out of the subnormal quantum must
// produce the normal encoding.
func TestSubnormalNormalBoundary(t *testing.T) {
	for k := 1; k <= 32; k++ {
		center := float32(k) * 0x1p-14
		lo, hi := center, center
		for j := 0; j < 64; j++ {
			lo = math.Nextafter32(lo, float32(math.Inf(-1)))
			hi = math.Nextafter32(hi, float32(math.Inf(1)))
		}
		for f := lo; f <= hi; f = math.Nextafter32(f, float32(math.Inf(1))) {
			for _, s := range []float32{f, -f} {
				want := refFromFloat32(s)
				if got := FromFloat32(s); got != want {
					t.Fatalf("%v (bits %#08x): got %#04x, want %#04x",
						s, math.Float32bits(s), got, want)
				}
			}
		}
	}
}

// TestOverflowBoundary pins the 65504/65520/65536 seam: 65520 is an exact
// tie whose even neighbour is the Inf encoding.
func TestOverflowBoundary(t *testing.T) {
	cases := []struct {
		f    float32
		want Num
	}{
		{65504, 0x7BFF},
		{math.Nextafter32(65520, 0), 0x7BFF}, // just below the tie: down
		{65520, PosInf},                      // tie: even neighbour is Inf
		{math.Nextafter32(65520, 1e9), PosInf},
		{65536, PosInf},
		{-65520, NegInf},
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.want {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.want)
		}
	}
}

// TestRandomizedAgainstReference fuzzes raw fp32 bit patterns (covering
// NaN payloads, subnormals, and the whole exponent range) against the
// float64 reference, and requires the batch kernel to agree with the
// scalar kernel everywhere.
func TestRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 1 << 20
	src := make([]float32, n)
	for i := range src {
		src[i] = math.Float32frombits(uint32(rng.Uint64()))
	}
	batch := Cast(nil, src)
	for i, f := range src {
		want := refFromFloat32(f)
		if got := FromFloat32(f); got != want {
			t.Fatalf("bits %#08x: FromFloat32 = %#04x, want %#04x",
				math.Float32bits(f), got, want)
		}
		if batch[i] != want {
			t.Fatalf("bits %#08x: Cast = %#04x, want %#04x",
				math.Float32bits(f), batch[i], want)
		}
	}
}

// TestUncastMatchesScalar requires the table-driven batch widening to
// equal the scalar decode bit-for-bit over every pattern.
func TestUncastMatchesScalar(t *testing.T) {
	src := make([]Num, 1<<16)
	for i := range src {
		src[i] = Num(i)
	}
	dst := Uncast(nil, src)
	for i, f := range dst {
		if math.Float32bits(f) != math.Float32bits(src[i].Float32()) {
			t.Fatalf("bits %#04x: Uncast %v != Float32 %v", i, f, src[i].Float32())
		}
		if math.Float32bits(f) != widenBits(uint16(i)) {
			t.Fatalf("bits %#04x: table disagrees with widenBits", i)
		}
	}
}

// TestRoundMatchesCastUncast pins Round, and each of its paths called
// directly, to Uncast(Cast(x)) where a rounding kernel goes wrong: every
// fp16 value, the midpoint to its upper neighbour (65520 for the largest
// finite, the overflow tie) and the fp32 values one ulp either side, both
// signs; plus fp32 subnormals, the fp32 extremes, ±Inf and NaN payloads
// that do and do not fit in fp16.
func TestRoundMatchesCastUncast(t *testing.T) {
	src := []float32{}
	add := func(bits ...uint32) {
		for _, b := range bits {
			src = append(src, math.Float32frombits(b), math.Float32frombits(b|0x80000000))
		}
	}
	for h := uint16(0); h < expMask; h++ {
		lo, hi := widenBits(h), widenBits(h+1)
		if h+1 == expMask {
			hi = f16Overflow // the next step up is 2^16, past the largest finite
		}
		mid := math.Float32bits(float32((float64(math.Float32frombits(lo)) + float64(math.Float32frombits(hi))) / 2))
		add(lo, mid-1, mid, mid+1)
	}
	add(1, 0x400000, 0x7FFFFF, 0x7F7FFFFF, f32Inf,
		0x7F800001, 0x7F801FFF, 0x7F802000, 0x7FA00000, 0x7FC00000, 0x7FFFFFFF)
	want := Uncast(nil, Cast(nil, src))
	for _, path := range append(roundPaths(), roundPath{"Round", Round}) {
		got := make([]float32, len(src))
		path.round(got, src)
		for i, x := range src {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s(%v) (bits %#08x) = %#08x, Uncast(Cast(x)) = %#08x",
					path.name, x, math.Float32bits(x), math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}
