package optim

import (
	"math"
	"slices"
	"testing"

	"superoffload/internal/tensor"
)

// adamOperands is one call's inputs: params, gradients and moments, each
// starting off elements into its own backing array (odd offsets make the
// leaf's vector loads and stores unaligned).
type adamOperands struct{ p, g, m, v []float32 }

func newAdamOperands(rng *tensor.RNG, off, n int) adamOperands {
	at := func() []float32 { return make([]float32, off+n)[off:] }
	o := adamOperands{at(), at(), at(), at()}
	special := []float32{float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7FC01234), math.Float32frombits(0xFF800123)} // a quiet and a signalling NaN
	for i := range o.p {
		o.p[i] = rng.NormFloat32()
		o.g[i] = rng.NormFloat32() * 0.1
		o.m[i] = rng.NormFloat32() * 0.01
		o.v[i] = o.m[i] * o.m[i]
		switch i % 11 {
		case 3: // a fresh element: zero moments
			o.m[i], o.v[i] = 0, 0
		case 7: // a bad gradient: ±Inf or NaN
			o.g[i] = special[(i/11)%len(special)]
		case 9: // a zero gradient on a zero variance
			o.g[i], o.v[i] = 0, 0
		case 5: // NaNs with their own payloads in some of the operands
			nan := func(b uint32) float32 { return math.Float32frombits(0x7FC00000 | b) }
			for j, x := range []*float32{&o.p[i], &o.g[i], &o.m[i], &o.v[i]} {
				if (i/11)&(1<<j) != 0 {
					*x = nan(uint32(j + 1))
				}
			}
		}
	}
	return o
}

func (o adamOperands) clone() adamOperands {
	return adamOperands{slices.Clone(o.p), slices.Clone(o.g), slices.Clone(o.m), slices.Clone(o.v)}
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// adamPath runs one GraceAdam path over src, writing to dst (src itself
// for an in-place call).
type adamPath func(k *adamScalars, dst, src adamOperands, gs float32)

func adamGoPath(k *adamScalars, dst, src adamOperands, gs float32) {
	graceAdamGo(k, dst.p, dst.m, dst.v, src.p, src.g, gs, src.m, src.v)
}

func adamLeafPath(k *adamScalars, dst, src adamOperands, gs float32) {
	i := graceAdamAVX2(k, dst.p, dst.m, dst.v, src.p, src.g, gs, src.m, src.v)
	adamGoPath(k, adamOperands{dst.p[i:], nil, dst.m[i:], dst.v[i:]},
		adamOperands{src.p[i:], src.g[i:], src.m[i:], src.v[i:]}, gs)
}

// TestGraceAdamAVX2MatchesGoLoop calls the Go loop and the AVX2 leaf side
// by side — directly, no package state flipped — and demands the same bits
// in params, moments and the written-back gradients, and gradients equal
// to the product g·gs (untouched at gs = 1): over lengths 0–17
// (the leaf's ragged edges), a bucket of 2¹⁶ and 2¹⁶+3; unaligned
// operands; in and out of place; with and without weight decay; at the
// gradient scales 1, 1/65536 and a clip factor; with ±Inf and NaN
// gradients, zero moments, and NaNs of different payloads meeting in one
// operation among the elements.
func TestGraceAdamAVX2MatchesGoLoop(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU lacks AVX2: the Go loop is the only path")
	}
	rng := tensor.NewRNG(44)
	lengths := []int{1 << 16, 1<<16 + 3}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	bits := func(x float32) uint32 { return math.Float32bits(x) }
	for _, n := range lengths {
		for _, wd := range []float64{0, 0.01} {
			cfg := DefaultConfig()
			cfg.WeightDecay = wd
			for _, gs := range []float32{1, 1.0 / 65536, float32(ClipScale(3.7, 0.25))} {
				for _, inPlace := range []bool{false, true} {
					src := newAdamOperands(rng, 1+2*(n%3), n)
					k := newAdamScalars(cfg, 5)
					var out [2]adamOperands
					for j, path := range []adamPath{adamGoPath, adamLeafPath} {
						s := src.clone()
						d := adamOperands{make([]float32, n), s.g, make([]float32, n), make([]float32, n)}
						if inPlace {
							d = s
						}
						path(&k, d, s, gs)
						if !inPlace && (!sameBits(s.p, src.p) || !sameBits(s.m, src.m) || !sameBits(s.v, src.v)) {
							t.Fatalf("n=%d: path %d stepping out of place wrote its source", n, j)
						}
						out[j] = d
					}
					for i := range n {
						want := src.g[i]
						if gs != 1 {
							want *= gs
						}
						gp, lf := out[0], out[1]
						if bits(gp.p[i]) != bits(lf.p[i]) || bits(gp.m[i]) != bits(lf.m[i]) ||
							bits(gp.v[i]) != bits(lf.v[i]) || bits(gp.g[i]) != bits(lf.g[i]) || bits(lf.g[i]) != bits(want) {
							t.Fatalf("n=%d wd=%v gs=%v in place %v: element %d (g %#08x): AVX2 (p %#08x m %#08x v %#08x g %#08x), Go loop (%#08x %#08x %#08x %#08x), g·gs %#08x",
								n, wd, gs, inPlace, i, bits(src.g[i]),
								bits(lf.p[i]), bits(lf.m[i]), bits(lf.v[i]), bits(lf.g[i]),
								bits(gp.p[i]), bits(gp.m[i]), bits(gp.v[i]), bits(gp.g[i]), bits(want))
						}
					}
				}
			}
		}
	}
}
