//go:build !amd64 || purego

package nn

// No assembly leaf on this architecture, or none wanted (the purego tag):
// geluGo computes every element.
func geluLeaf(y, g, x []float32) int { return 0 }
