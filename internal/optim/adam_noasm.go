//go:build !amd64

package optim

// No assembly leaf on this architecture: graceAdamGo steps every element.
func graceAdamLeaf(k *adamScalars, dp, dm, dv, p, g []float32, gs float32, sm, sv []float32) int {
	return 0
}
