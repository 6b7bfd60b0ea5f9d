//go:build !amd64 || purego

package nn

// leafGelu: no leaf on this architecture, or none built (purego).
func leafGelu() func(y, g, x []float32) { return nil }
