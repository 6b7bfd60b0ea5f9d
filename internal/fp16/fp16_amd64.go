package fp16

import "superoffload/internal/cpuid"

// useF16C selects the assembly leaf in fp16_amd64.s. The CPU decides,
// once: the leaf and the Go loop give the same bits.
var useF16C = cpuid.F16C()

// roundLeaf rounds the longest prefix of whole 8-element blocks with the
// F16C leaf and returns its length, leaving the rest to roundGo; without
// F16C it rounds nothing.
func roundLeaf(dst, src []float32) int {
	if !useF16C {
		return 0
	}
	return roundF16C(dst, src)
}

// roundF16C is roundLeaf on any amd64 CPU with F16C. The hardware quiets a
// signalling NaN where roundGo keeps its payload, so the leaf stops at the
// first block holding a NaN, which roundGo rounds before the leaf resumes.
func roundF16C(dst, src []float32) int {
	n := len(src) &^ 7
	dst = dst[:n]
	for i := 0; i < n; {
		if i += roundBlocks(&dst[i], &src[i], n-i); i < n {
			roundGo(dst[i:i+8], src[i:i+8])
			i += 8
		}
	}
	return n
}

// roundBlocks rounds src[0:n] into dst block by block up to the first
// block holding a NaN and returns the number of elements rounded.
//
//go:noescape
func roundBlocks(dst, src *float32, n int) int
