package fp16

// leafRound is Round's F16C path called directly — whole blocks through
// the leaf, the rest through roundGo — or nil on a CPU without F16C.
func leafRound() func(dst, src []float32) {
	if !useF16C {
		return nil
	}
	return func(dst, src []float32) {
		i := roundF16C(dst, src)
		roundGo(dst[i:], src[i:])
	}
}
