package tensor

import "superoffload/internal/cpuid"

// useAVX2 selects the assembly leaves in matmul_amd64.s. The CPU decides,
// once, and nothing else can: both paths produce the same bits, so there
// is nothing to choose between.
var useAVX2 = cpuid.AVX2()

//go:noescape
func accumTile4x16(out *float32, ldo int, a *float32, ars, aks int, b *float32, ldb, k int)

//go:noescape
func dotTile4x4(out *float32, ldo int, a *float32, lda int, b *float32, ldb, k4 int)

func accumRows(out, a, b []float32, lo, hi, k, n, ars, aks int) {
	if useAVX2 {
		accumRowsAVX2(out, a, b, lo, hi, k, n, ars, aks)
		return
	}
	accumRowsGeneric(out, a, b, lo, hi, 0, n, k, n, ars, aks)
}

func dotRows(out, a, b []float32, lo, hi, k, n int) {
	if useAVX2 {
		dotRowsAVX2(out, a, b, lo, hi, k, n)
		return
	}
	dotRowsGeneric(out, a, b, lo, hi, 0, n, k, n)
}

// accumRowsAVX2 is accumRowsGeneric with every whole 4-row × 16-column
// tile handed to accumTile4x16; leftover columns and rows take the Go
// loops. Column tiles are the outer loop so one k×16 panel of b is reused
// by every row tile of the band. Each pointer comes from a slice
// expression spanning the tile's whole footprint, so a shape the operands
// do not cover panics here instead of reading past them in the leaf.
func accumRowsAVX2(out, a, b []float32, lo, hi, k, n, ars, aks int) {
	rows, cols := lo, 0
	if k > 0 {
		rows, cols = lo+(hi-lo)&^3, n&^15
	}
	for j := 0; j < cols; j += 16 {
		bt := b[j : (k-1)*n+j+16]
		for i := lo; i < rows; i += 4 {
			ot := out[i*n+j : (i+3)*n+j+16]
			at := a[i*ars : (i+3)*ars+(k-1)*aks+1]
			accumTile4x16(&ot[0], n, &at[0], ars, aks, &bt[0], n, k)
		}
	}
	accumRowsGeneric(out, a, b, lo, rows, cols, n, k, n, ars, aks)
	accumRowsGeneric(out, a, b, rows, hi, 0, n, k, n, ars, aks)
}

// dotRowsAVX2 is dotRowsGeneric with every whole 4×4 output tile handed to
// dotTile4x4, which returns the folded stride-4 partials; the k%4 tail is
// then added here one term at a time, as the Go loop adds it.
func dotRowsAVX2(out, a, b []float32, lo, hi, k, n int) {
	rows, cols := lo, 0
	if k >= 4 {
		rows, cols = lo+(hi-lo)&^3, n&^3
	}
	for j := 0; j < cols; j += 4 {
		bt := b[j*k : (j+4)*k]
		for i := lo; i < rows; i += 4 {
			ot := out[i*n+j : (i+3)*n+j+4]
			at := a[i*k : (i+4)*k]
			dotTile4x4(&ot[0], n, &at[0], k, &bt[0], k, k/4)
			for kk := k &^ 3; kk < k; kk++ {
				for r := 0; r < 4; r++ {
					av, orow := at[r*k+kk], ot[r*n:][:4]
					orow[0] += av * bt[kk]
					orow[1] += av * bt[k+kk]
					orow[2] += av * bt[2*k+kk]
					orow[3] += av * bt[3*k+kk]
				}
			}
		}
	}
	dotRowsGeneric(out, a, b, lo, rows, cols, n, k, n)
	dotRowsGeneric(out, a, b, rows, hi, 0, n, k, n)
}
