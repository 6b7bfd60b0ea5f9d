package fp16

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const (
	maxValue  = 65504.0         // the largest finite fp16 magnitude
	minNormal = 6.103515625e-05 // the smallest positive normal fp16 (2^-14)
)

func TestKnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits Num
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},                         // max finite
		{6.103515625e-05, 0x0400},               // min normal
		{5.960464477539063e-08, 0x0001},         // min subnormal
		{float32(math.Inf(1)), PosInf},          //
		{float32(math.Inf(-1)), NegInf},         //
		{0.333251953125, 0x3555},                // nearest fp16 to 1/3
		{65536, PosInf},                         // overflow
		{1e-10, 0x0000},                         // underflow to zero
		{float32(math.Copysign(0, -1)), 0x8000}, // negative zero
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.bits {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.bits)
		}
	}
}

func TestNaNPreserved(t *testing.T) {
	n := FromFloat32(float32(math.NaN()))
	if !n.IsNaN() {
		t.Fatalf("NaN not preserved: %#04x", n)
	}
	if !math.IsNaN(float64(n.Float32())) {
		t.Fatal("fp16 NaN does not decode to NaN")
	}
	if QuietNaN.IsInf() || !QuietNaN.IsNaN() {
		t.Fatal("QuietNaN classification")
	}
	if !PosInf.IsInf() || PosInf.IsNaN() {
		t.Fatal("PosInf classification")
	}
}

func TestRoundTripExactForFP16Representables(t *testing.T) {
	// Property: decode(encode(decode(bits))) is the identity for all
	// 65536 bit patterns (except NaN payload canonicalization is allowed
	// to preserve NaN-ness only).
	for i := 0; i < 1<<16; i++ {
		n := Num(i)
		f := n.Float32()
		back := FromFloat32(f)
		if n.IsNaN() {
			if !back.IsNaN() {
				t.Fatalf("bits %#04x: NaN lost", i)
			}
			continue
		}
		if back != n {
			t.Fatalf("bits %#04x -> %v -> %#04x", i, f, back)
		}
	}
}

func TestConversionMonotonic(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		// Clamp to finite fp16 range to avoid both mapping to Inf.
		clamp := func(x float32) float32 {
			if x > maxValue {
				return maxValue
			}
			if x < -maxValue {
				return -maxValue
			}
			return x
		}
		a, b = clamp(a), clamp(b)
		if a > b {
			a, b = b, a
		}
		return FromFloat32(a).Float32() <= FromFloat32(b).Float32()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRoundNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10: ties to even
	// mantissa (1.0, mantissa 0).
	halfway := float32(1.0 + 1.0/2048.0)
	if got := FromFloat32(halfway); got != 0x3C00 {
		t.Errorf("tie should round to even: got %#04x", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even
	// (mantissa 2).
	halfway2 := float32(1.0 + 3.0/2048.0)
	if got := FromFloat32(halfway2); got != 0x3C02 {
		t.Errorf("tie should round to even: got %#04x", got)
	}
}

func TestRelativeErrorBound(t *testing.T) {
	// Property: for normal-range values, round-off is ≤ 2^-11 relative.
	f := func(a float32) bool {
		x := float32(math.Abs(float64(a)))
		if x < minNormal || x > maxValue || math.IsNaN(float64(x)) {
			return true
		}
		rel := math.Abs(float64(x)-float64(FromFloat32(x).Float32())) / float64(x)
		return rel <= 1.0/2048.0+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCastUncastSlices(t *testing.T) {
	src := make([]float32, 1003) // not a multiple of 4: tail path covered
	for i := range src {
		src[i] = float32(i)*0.25 - 100
	}
	h := Cast(nil, src)
	back := Uncast(nil, h)
	if len(back) != len(src) {
		t.Fatalf("len %d != %d", len(back), len(src))
	}
	for i := range src {
		if math.Abs(float64(back[i]-src[i])) > 0.06 { // 0.25-grid values near 150 are representable
			t.Fatalf("elem %d: %v -> %v", i, src[i], back[i])
		}
	}
	// Reuse buffers.
	h2 := Cast(h, src[:10])
	if len(h2) != 10 {
		t.Errorf("Cast reuse wrong length %d", len(h2))
	}
}

func TestScanBad(t *testing.T) {
	ok := []Num{FromFloat32(1), FromFloat32(-2), FromFloat32(0)}
	if ScanBad(ok) {
		t.Error("clean slice flagged")
	}
	if !ScanBad(append(append([]Num{}, ok...), PosInf)) {
		t.Error("Inf not flagged")
	}
	if !ScanBad([]Num{QuietNaN}) {
		t.Error("NaN not flagged")
	}
}

func TestOverflowToInfSemantics(t *testing.T) {
	// The loss-scaling failure mode: big gradient values overflow to Inf
	// in fp16 and must be caught by ScanBad.
	grads := []float32{1e5, -2e5, 3.0}
	h := Cast(nil, grads)
	if !ScanBad(h) {
		t.Fatal("overflowed gradients not detected")
	}
	if h[0] != PosInf || h[1] != NegInf {
		t.Fatalf("overflow encodings: %#04x %#04x", h[0], h[1])
	}
}

func TestSubnormalRoundTrip(t *testing.T) {
	for i := 1; i < 1024; i++ {
		n := Num(i) // all positive subnormals
		if FromFloat32(n.Float32()) != n {
			t.Fatalf("subnormal %#04x does not round-trip", i)
		}
	}
}

// ---- casting kernels (the §4.5 payload producers; b.SetBytes reports GB/s) ----

func BenchmarkFP16Cast(b *testing.B) {
	const n = 1 << 22
	src := make([]float32, n)
	rng := rand.New(rand.NewSource(9))
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	dst := make([]Num, n)
	b.SetBytes(n * 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cast(dst, src)
	}
}

func BenchmarkFP16Uncast(b *testing.B) {
	const n = 1 << 22
	src := make([]Num, n)
	for i := range src {
		src[i] = FromFloat32(float32(i % 1000))
	}
	dst := make([]float32, n)
	b.SetBytes(n * 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Uncast(dst, src)
	}
}

func BenchmarkFP16ScanBad(b *testing.B) {
	const n = 1 << 22
	xs := make([]Num, n)
	b.SetBytes(n * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ScanBad(xs) {
			b.Fatal("clean slice flagged")
		}
	}
}

func BenchmarkFP16Round(b *testing.B) {
	const n = 1 << 22
	src := make([]float32, n)
	rng := rand.New(rand.NewSource(9))
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	dst := make([]float32, n)
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Round(dst, src)
	}
}
