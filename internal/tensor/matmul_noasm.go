//go:build !amd64

package tensor

// No assembly leaves on this architecture: the Go loops are the kernels.

func accumRows(out, a, b []float32, lo, hi, k, n, ars, aks int) {
	accumRowsGeneric(out, a, b, lo, hi, 0, n, k, n, ars, aks)
}

func dotRows(out, a, b []float32, lo, hi, k, n int) {
	dotRowsGeneric(out, a, b, lo, hi, 0, n, k, n)
}
