package tensor

import (
	"math"
	"testing"
)

// unaligned returns n Randn values, exact zeros sprinkled in, that start
// `off` elements into their backing array, so the leaves' vector loads and
// stores are unaligned.
func unaligned(rng *RNG, off, n int) []float32 {
	s := make([]float32, off+n)[off:]
	for i := range s {
		if s[i] = rng.NormFloat32(); i%5 == 2 {
			s[i] = 0
		}
	}
	return s
}

// specials is unaligned drawn mostly from ±0 and small exact values, with
// a NaN or +Inf one time in twenty: signed zeros survive whole dot products
// and accumulations, so a leaf that starts from the wrong zero, or skips a
// zero multiplicand past an Inf or NaN, changes a sign or a NaN.
func specials(rng *RNG, off, n int) []float32 {
	nan, inf, nz := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	vals := [...]float32{nan, inf, 0, 0, 0, 0, nz, nz, nz, nz, 1, -1, 0.5, -0.5, 2, -2, 1, -1, 0.25, -4}
	s := make([]float32, off+n)[off:]
	for i := range s {
		s[i] = vals[rng.Intn(len(vals))]
	}
	return s
}

// diffShapes crosses every tile edge of both widths: rows 1–9 (the 4-row
// tiles and their remainders), k 1–9 (below, at and past one dot step of
// four, with every k%4 tail), columns 1–70 (16, 32, their multiples and
// their edges, and the dot's 4 and 8), plus large and lane-sized shapes.
func diffShapes() [][3]int {
	shapes := [][3]int{{128, 128, 512}, {128, 512, 128}, {130, 31, 530}, {37, 67, 53}, {64, 128, 384}, {66, 13, 97}}
	for m := 1; m <= 9; m++ {
		for k := 1; k <= 9; k++ {
			for n := 1; n <= 70; n++ {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	return shapes
}

// TestAVX2KernelsMatchGoLoops calls the Go row kernels and the assembly row
// walkers side by side — directly, each width by name, no package state
// flipped — and demands the same bits. "16x4" is the AVX2 walker (4×16
// accumulate and 4×4 dot tiles); "32x8" adds the AVX-512F 4×32 and 4×8
// tiles in front of them and skips on a CPU without AVX-512F. Each runs
// over every small shape (all tile/edge mixes, k below one dot step),
// large ones, unaligned operands, and every split of the rows into 1–4
// bands, aligned to the tile height or not; the shapes with k ≤ 5 run
// again on signed zeros, NaN and Inf. The accumulate walker runs in both
// of its stridings, from a non-zero partial, over chained k sub-ranges and
// over the empty one.
func TestAVX2KernelsMatchGoLoops(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU lacks AVX2: the Go loops are the only path")
	}
	for _, width := range []struct {
		name string
		zmm  bool
	}{{"16x4", false}, {"32x8", true}} {
		t.Run(width.name, func(t *testing.T) {
			if width.zmm && !useZMM {
				t.Skip("CPU lacks AVX-512F: the 4×32 and 4×8 tiles never run here")
			}
			rng := NewRNG(17)
			for _, s := range diffShapes() {
				checkWalkers(t, width.zmm, s, unaligned, rng)
				if s[1] <= 5 {
					checkWalkers(t, width.zmm, s, specials, rng)
				}
			}
		})
	}
}

func checkWalkers(t *testing.T, zmm bool, s [3]int, draw func(*RNG, int, int) []float32, rng *RNG) {
	t.Helper()
	same := func(what string, workers int, got, want []float32) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s %v, %d bands: elem %d = %v (bits %#08x), Go loop %v (bits %#08x)",
					what, s, workers, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	m, k, n := s[0], s[1], s[2]
	a := draw(rng, 1, m*k)  // (m,k), or (k,m) read through its transpose
	b := draw(rng, 3, k*n)  // (k,n)
	bt := draw(rng, 5, n*k) // (n,k)
	partial := draw(rng, 7, m*n)
	want, got := make([]float32, m*n), draw(rng, 9, m*n)
	for workers := 1; workers <= min(m, 4); workers++ {
		band := (m + workers - 1) / workers
		bands := func(f func(lo, hi int)) {
			for lo := 0; lo < m; lo += band {
				f(lo, min(lo+band, m))
			}
		}
		for _, st := range []struct {
			what     string
			ars, aks int
		}{{"MatMul", k, 1}, {"TMatMul", 1, m}} {
			copy(want, partial)
			accumRowsGeneric(want, a, b, 0, m, 0, n, k, n, st.ars, st.aks)
			copy(got, partial)
			bands(func(lo, hi int) { accumRowsAVX2(got, a, b, lo, hi, k, n, st.ars, st.aks, zmm) })
			same(st.what, workers, got, want)
		}

		// TMatMulAccum's chain: data rows [0,k/2), the empty range, then
		// [k/2,k), equal one fold over [0,k) from the same partial.
		mid := k / 2
		copy(got, partial)
		bands(func(lo, hi int) {
			accumRowsAVX2(got, a[:mid*m], b[:mid*n], lo, hi, mid, n, 1, m, zmm)
			accumRowsAVX2(got, a[mid*m:mid*m], b[mid*n:mid*n], lo, hi, 0, n, 1, m, zmm)
			accumRowsAVX2(got, a[mid*m:], b[mid*n:], lo, hi, k-mid, n, 1, m, zmm)
		})
		same("TMatMulAccum chain", workers, got, want)

		dotRowsGeneric(want, a, bt, 0, m, 0, n, k, n)
		bands(func(lo, hi int) { dotRowsAVX2(got, a, bt, lo, hi, k, n, zmm) })
		same("MatMulT", workers, got, want)
	}
}
