//go:build !purego

package nn

import "superoffload/internal/cpuid"

// useGeluLeaf selects the assembly leaf in gelu_amd64.s. The leaf fuses
// multiply-adds exactly where math.Exp's FMA path does, and math.Exp takes
// that path on the CPUs with AVX and FMA, so AVX2 and FMA together are
// where the leaf and geluGo give the same bits. The CPU decides, once.
var useGeluLeaf = cpuid.AVX2() && cpuid.FMA()

// geluLeaf runs the longest prefix of whole 4-element blocks through the
// leaf and returns its length, leaving the rest to geluGo; on a CPU
// without AVX2 and FMA it runs nothing.
func geluLeaf(y, g, x []float32) int {
	n := len(x) &^ 3
	if !useGeluLeaf || n == 0 {
		return 0
	}
	y, g = y[:n], g[:n] // the leaf writes n elements of each
	geluBlocks(&y[0], &g[0], &x[0], n)
	return n
}

// geluBlocks writes gelu(x) to y and gelu′(x) to grad for x[0:n], n a positive
// multiple of 4; grad may be x.
//
//go:noescape
func geluBlocks(y, grad, x *float32, n int)

// geluBlocks64 runs geluBlocks' block on float64 x[0:n] into float64 y and
// grad, with no float32 rounding; the tests use it to check every rounding.
//
//go:noescape
func geluBlocks64(y, grad, x *float64, n int)
