// Package fp16 implements IEEE 754 binary16 in software. Mixed-precision
// training (§4.5 of the paper) keeps the GPU's working weights in fp16
// while the optimizer runs in fp32; this package provides the conversions,
// the rounding pass that publishes an fp32 master as its fp16 value
// (Round), and the NaN/Inf scans the speculation-then-validation scheme
// performs during validation (§4.4).
//
// The conversion kernels are built for throughput: fp32→fp16 is a
// branch-light bit-arithmetic round (one well-predicted range test per
// element in the batch kernels), and fp16→fp32 is a 65536-entry lookup
// table, so Cast, Uncast and Round stream slices instead of paying a
// per-scalar call with data-dependent branches. On amd64 CPUs with F16C,
// Round runs 8 elements at a time through the hardware conversions
// (VCVTPS2PH, VCVTPH2PS), which give the Go loop's bits for every input
// but a signalling NaN; blocks holding a NaN take the Go loop, which
// defines what a NaN becomes.
package fp16

import "math"

// Num is one binary16 value: 1 sign bit, 5 exponent bits, 10 mantissa bits.
type Num uint16

const (
	signMask = 0x8000
	expMask  = 0x7C00
	fracMask = 0x03FF

	// PosInf and NegInf are the fp16 infinities produced on overflow.
	PosInf Num = 0x7C00
	NegInf Num = 0xFC00
	// QuietNaN is a canonical fp16 NaN.
	QuietNaN Num = 0x7E00
)

// fp32 bit-pattern landmarks for the conversion kernels.
const (
	f16NormMin  = 0x38800000 // 2^-14, the smallest fp16 normal
	f16NormSpan = 0x0F000000 // width of the fp16 normal range in fp32 bits
	f16Overflow = 0x47800000 // 2^16: at or above, magnitudes round to Inf
	f16RoundTop = 0x477FF000 // 65520, the overflow tie: at or above, Round leaves the fast path
	f32Inf      = 0x7F800000
	subMagic    = 0x3F000000 // 0.5f, the subnormal rounding shifter
	expRebias   = (127 - 15) << 23
)

// fromBits converts one fp32 bit pattern to fp16 bits with
// round-to-nearest-even in every range (normal, subnormal, and the
// overflow boundary), preserving NaN payloads where they fit.
func fromBits(b uint32) uint16 {
	sign := uint16(b>>16) & signMask
	ax := b & 0x7FFFFFFF
	switch {
	case ax >= f16Overflow:
		if ax > f32Inf {
			// NaN: keep the mantissa's top ten bits so the payload
			// survives the narrowing where it can.
			out := uint16(expMask) | uint16((ax>>13)&fracMask)
			if out&fracMask == 0 {
				out |= 0x0200 // payload lived entirely in the dropped bits
			}
			return sign | out
		}
		// Inf, and finite magnitudes ≥ 2^16 (everything past the 65520
		// halfway point, which the normal path below rounds up itself).
		return sign | expMask
	case ax < f16NormMin:
		// Subnormal or zero: adding 0.5 makes the FPU round the value at
		// the fp16 subnormal quantum 2^-24 in its native nearest-even
		// mode; the sum's low mantissa bits are then exactly the fp16
		// payload (a round-up at 2^-14 carries into the normal encoding,
		// which is the correct result there too).
		f := math.Float32frombits(ax) + 0.5
		return sign | uint16(math.Float32bits(f)-subMagic)
	}
	// Normal: rebias and round in one add — 0xFFF plus the kept
	// mantissa's low ("odd") bit rounds to nearest-even via the natural
	// carry, overflowing 65520 ties into the Inf encoding as IEEE
	// requires.
	round := 0xFFF + ((b >> 13) & 1)
	return sign | uint16((ax-expRebias+round)>>13)
}

// FromFloat32 converts with round-to-nearest-even; values that round
// past the largest finite fp16 (65504) overflow to infinity (the
// behaviour that makes loss-scale overflow checks necessary in
// mixed-precision training).
func FromFloat32(f float32) Num {
	return Num(fromBits(math.Float32bits(f)))
}

// widenBits is the bit-level fp16→fp32 expansion (exact: binary16 ⊂
// binary32). It exists to build uncastTable; the hot paths read the table.
func widenBits(n uint16) uint32 {
	sign := uint32(n&signMask) << 16
	exp := uint32(n&expMask) >> 10
	frac := uint32(n & fracMask)

	switch {
	case exp == 0x1F: // Inf/NaN
		return sign | f32Inf | frac<<13
	case exp == 0:
		if frac == 0 {
			return sign
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= fracMask
		return sign | e<<23 | frac<<13
	}
	return sign | (exp-15+127)<<23 | frac<<13
}

// uncastTable maps every fp16 bit pattern to its fp32 bits: 256 KiB that
// turns the widening into a single load per element.
var uncastTable = buildUncastTable()

func buildUncastTable() *[1 << 16]uint32 {
	t := new([1 << 16]uint32)
	for i := range t {
		t[i] = widenBits(uint16(i))
	}
	return t
}

// Float32 converts back to fp32 exactly (binary16 ⊂ binary32).
func (n Num) Float32() float32 {
	return math.Float32frombits(uncastTable[n])
}

// IsNaN reports whether n is any NaN encoding.
func (n Num) IsNaN() bool { return n&expMask == expMask && n&fracMask != 0 }

// IsInf reports whether n is ±Inf.
func (n Num) IsInf() bool { return n&expMask == expMask && n&fracMask == 0 }

// Cast converts a fp32 slice to fp16, writing into dst (allocating when dst
// is too small) and returning it. With Uncast it is Round's reference; it
// is also the benchmark's cast probe. The loop inlines the branch-free
// normal-range round (one range test per element, taken for every finite
// training value) and falls back to fromBits for the rest.
func Cast(dst []Num, src []float32) []Num {
	if cap(dst) < len(src) {
		dst = make([]Num, len(src))
	}
	dst = dst[:len(src)]
	for i, x := range src {
		b := math.Float32bits(x)
		ax := b & 0x7FFFFFFF
		if ax-f16NormMin < f16NormSpan { // fp16-normal range [2^-14, 2^16)
			round := 0xFFF + ((b >> 13) & 1)
			dst[i] = Num(uint16(b>>16)&signMask | uint16((ax-expRebias+round)>>13))
		} else {
			dst[i] = Num(fromBits(b))
		}
	}
	return dst
}

// Round writes float32(fp16(x)) for each x of src into dst, bit for bit
// Uncast(Cast(src)) with no fp16 array between: the pass that publishes
// fp32 masters as fp16 working weights. dst must be src or not overlap it.
// On amd64 with F16C, whole 8-element blocks take the hardware round trip
// (fp16_amd64.s); roundGo takes the rest.
func Round(dst, src []float32) {
	dst = dst[:len(src)]
	i := roundLeaf(dst, src)
	roundGo(dst[i:], src[i:])
}

// roundGo is Round's contract and its portable kernel. Below the overflow
// tie 65520 it inlines Cast's normal-range round, kept in fp32 bits.
func roundGo(dst, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		b := math.Float32bits(x)
		ax := b & 0x7FFFFFFF
		if ax-f16NormMin < f16RoundTop-f16NormMin { // [2^-14, 65520)
			dst[i] = math.Float32frombits(b&0x80000000 | (ax+0xFFF+(b>>13)&1)&^0x1FFF)
		} else {
			dst[i] = math.Float32frombits(uncastTable[fromBits(b)])
		}
	}
}

// Uncast converts fp16 back to fp32 into dst: one table load per element.
func Uncast(dst []float32, src []Num) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = math.Float32frombits(uncastTable[x])
	}
	return dst
}

// ScanBad reports whether the fp16 slice contains any NaN or Inf — the
// overflow check mixed-precision training performs before applying an
// optimizer step, deferred to validation time under STV.
func ScanBad(xs []Num) bool {
	for _, x := range xs {
		if x&expMask == expMask {
			return true
		}
	}
	return false
}
