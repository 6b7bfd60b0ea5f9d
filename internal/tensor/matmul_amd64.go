package tensor

import "superoffload/internal/cpuid"

// useAVX2 selects the assembly leaves in matmul_amd64.s, and useZMM their
// 16-lane forms as well. The CPU decides, once, and nothing else can: every
// leaf produces the Go loops' bits, so there is nothing to choose between.
var useAVX2, useZMM = cpuid.AVX2(), cpuid.AVX512F()

//go:noescape
func accumTile4x16(out *float32, ldo int, a *float32, ars, aks int, b *float32, ldb, k int)

//go:noescape
func accumTile4x32(out *float32, ldo int, a *float32, ars, aks int, b *float32, ldb, k int)

//go:noescape
func dotTile4x4(out *float32, ldo int, a *float32, lda int, b *float32, ldb, k4 int)

//go:noescape
func dotTile4x8(out *float32, ldo int, a *float32, lda int, b *float32, ldb, k4 int)

func accumRows(out, a, b []float32, lo, hi, k, n, ars, aks int) {
	if useAVX2 {
		accumRowsAVX2(out, a, b, lo, hi, k, n, ars, aks, useZMM)
		return
	}
	accumRowsGeneric(out, a, b, lo, hi, 0, n, k, n, ars, aks)
}

func dotRows(out, a, b []float32, lo, hi, k, n int) {
	if useAVX2 {
		dotRowsAVX2(out, a, b, lo, hi, k, n, useZMM)
		return
	}
	dotRowsGeneric(out, a, b, lo, hi, 0, n, k, n)
}

// accumRowsAVX2 is accumRowsGeneric with every whole 4-row tile handed to
// a leaf: 32-column tiles to accumTile4x32 while they fit, if zmm, then
// 16-column tiles to accumTile4x16; leftover columns and rows take the Go
// loops. Column tiles are the outer loop so one k-row panel of b is reused
// by every row tile of the band. Each pointer comes from a slice
// expression spanning the tile's whole footprint, so a shape the operands
// do not cover panics here instead of reading past them in the leaf.
func accumRowsAVX2(out, a, b []float32, lo, hi, k, n, ars, aks int, zmm bool) {
	rows, cols, wide := lo, 0, 0
	if k > 0 {
		rows, cols = lo+(hi-lo)&^3, n&^15
	}
	if zmm {
		wide = cols &^ 31
	}
	for j, w := 0, 32; j < cols; j += w {
		if j >= wide {
			w = 16
		}
		bt := b[j : (k-1)*n+j+w]
		for i := lo; i < rows; i += 4 {
			ot := out[i*n+j : (i+3)*n+j+w]
			at := a[i*ars : (i+3)*ars+(k-1)*aks+1]
			if w == 32 {
				accumTile4x32(&ot[0], n, &at[0], ars, aks, &bt[0], n, k)
			} else {
				accumTile4x16(&ot[0], n, &at[0], ars, aks, &bt[0], n, k)
			}
		}
	}
	accumRowsGeneric(out, a, b, lo, rows, cols, n, k, n, ars, aks)
	accumRowsGeneric(out, a, b, rows, hi, 0, n, k, n, ars, aks)
}

// dotRowsAVX2 is dotRowsGeneric with every whole output tile handed to a
// leaf — 4×8 tiles to dotTile4x8 while they fit, if zmm, then 4×4 tiles to
// dotTile4x4 — which returns the folded stride-4 partials; the k%4 tail is
// then added here one term at a time, as the Go loop adds it.
func dotRowsAVX2(out, a, b []float32, lo, hi, k, n int, zmm bool) {
	rows, cols, wide := lo, 0, 0
	if k >= 4 {
		rows, cols = lo+(hi-lo)&^3, n&^3
	}
	if zmm {
		wide = cols &^ 7
	}
	for j, w := 0, 8; j < cols; j += w {
		if j >= wide {
			w = 4
		}
		bt := b[j*k : (j+w)*k]
		for i := lo; i < rows; i += 4 {
			ot := out[i*n+j : (i+3)*n+j+w]
			at := a[i*k : (i+4)*k]
			if w == 8 {
				dotTile4x8(&ot[0], n, &at[0], k, &bt[0], k, k/4)
			} else {
				dotTile4x4(&ot[0], n, &at[0], k, &bt[0], k, k/4)
			}
			for kk := k &^ 3; kk < k; kk++ {
				for r := 0; r < 4; r++ {
					av, orow := at[r*k+kk], ot[r*n:][:w]
					for c := range orow {
						orow[c] += av * bt[c*k+kk]
					}
				}
			}
		}
	}
	dotRowsGeneric(out, a, b, lo, rows, cols, n, k, n)
	dotRowsGeneric(out, a, b, rows, hi, 0, n, k, n)
}
