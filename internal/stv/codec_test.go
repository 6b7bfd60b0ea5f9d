package stv

import (
	"encoding/binary"
	"math"

	"superoffload/internal/optim"
)

// refEncodeSlot is encodeSlot written as a plain per-element loop: the
// slot layout spelled out independently of the shared iolane loop, which
// FuzzRecordRoundTrip holds to it byte for byte.
func refEncodeSlot(buf []byte, sh *optim.MixedShard) []byte {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(sh.State.Step))
	off := 8
	for _, xs := range [][]float32{sh.Master, sh.State.M, sh.State.V} {
		for _, x := range xs {
			le.PutUint32(buf[off:], math.Float32bits(x))
			off += 4
		}
	}
	return buf
}
