//go:build !amd64

package fp16

// leafRound: no leaf on this architecture.
func leafRound() func(dst, src []float32) { return nil }
