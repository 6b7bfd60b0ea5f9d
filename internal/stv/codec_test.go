package stv

import (
	"encoding/binary"
	"math"
)

// refEncodeRecord is encodeRecord as it stood while the float32 loop was
// a closure of its own: the byte layout every existing backing file and
// the fuzz corpus under testdata/ was written with. It stays as the
// reference FuzzRecordRoundTrip holds the shared iolane loop to.
func refEncodeRecord(buf []byte, st *BucketState) []byte {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(st.Shard.State.Step))
	le.PutUint64(buf[8:], 0)
	buf[16] = 0
	off := recordHeaderBytes
	put := func(xs []float32) {
		for _, x := range xs {
			le.PutUint32(buf[off:], math.Float32bits(x))
			off += 4
		}
	}
	put(st.Shard.Master)
	put(st.Shard.State.M)
	put(st.Shard.State.V)
	if st.Snap != nil {
		le.PutUint64(buf[8:], uint64(st.Snap.Step))
		buf[16] = 1
		put(st.Snap.Master)
		put(st.Snap.M)
		put(st.Snap.V)
	}
	return buf
}
