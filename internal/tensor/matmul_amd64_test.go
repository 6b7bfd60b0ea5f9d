package tensor

import "testing"

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

func diffShapes() [][3]int {
	shapes := [][3]int{{128, 128, 512}, {128, 512, 128}, {130, 31, 530}, {37, 67, 53}}
	for m := 1; m <= 9; m++ {
		for k := 1; k <= 9; k++ {
			for n := 1; n <= 35; n++ {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	return shapes
}

// TestAVX2KernelsMatchGoLoops calls the Go row kernels and the AVX2 row
// kernels side by side — directly, no package state flipped — and demands
// the same bits: over every small shape (all tile/edge mixes, k below one
// dot step), four large ones, unaligned operands, and every split of the
// rows into 1–4 bands, aligned to the tile height or not. The accumulate
// kernel runs in both of its stridings, from a non-zero partial, over
// chained k sub-ranges and over the empty one.
func TestAVX2KernelsMatchGoLoops(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU lacks AVX2: the Go loops are the only path")
	}
	rng := NewRNG(17)
	same := func(what string, s [3]int, workers int, got, want []float32) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s %v, %d bands: elem %d = %v, Go loop %v", what, s, workers, i, got[i], want[i])
			}
		}
	}
	for _, s := range diffShapes() {
		m, k, n := s[0], s[1], s[2]
		a := unaligned(rng, 1, m*k)  // (m,k), or (k,m) read through its transpose
		b := unaligned(rng, 3, k*n)  // (k,n)
		bt := unaligned(rng, 5, n*k) // (n,k)
		partial := unaligned(rng, 7, m*n)
		want, got := make([]float32, m*n), unaligned(rng, 9, m*n)
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
				bands(func(lo, hi int) { accumRowsAVX2(got, a, b, lo, hi, k, n, st.ars, st.aks) })
				same(st.what, s, workers, got, want)
			}

			// TMatMulAccum's chain: data rows [0,k/2), the empty range, then
			// [k/2,k), equal one fold over [0,k) from the same partial.
			mid := k / 2
			copy(got, partial)
			bands(func(lo, hi int) {
				accumRowsAVX2(got, a[:mid*m], b[:mid*n], lo, hi, mid, n, 1, m)
				accumRowsAVX2(got, a[mid*m:mid*m], b[mid*n:mid*n], lo, hi, 0, n, 1, m)
				accumRowsAVX2(got, a[mid*m:], b[mid*n:], lo, hi, k-mid, n, 1, m)
			})
			same("TMatMulAccum chain", s, workers, got, want)

			dotRowsGeneric(want, a, bt, 0, m, 0, n, k, n)
			bands(func(lo, hi int) { dotRowsAVX2(got, a, bt, lo, hi, k, n) })
			same("MatMulT", s, workers, got, want)
		}
	}
}
