//go:build !amd64

package fp16

// No assembly leaf on this architecture: roundGo rounds every element.
func roundLeaf(dst, src []float32) int { return 0 }
