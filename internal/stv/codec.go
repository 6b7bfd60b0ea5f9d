package stv

import (
	"encoding/binary"
	"fmt"

	"superoffload/internal/iolane"
	"superoffload/internal/optim"
)

// Slot codec: the one byte layout of a version of a bucket's state, Adam
// step u64 then the fp32 master/m/v arrays. The file-backed store
// (MLPStore, at every path count) keeps a bucket's record as two slots,
// one per version (BucketState); a checkpoint frames one slot per bucket
// (checkpoint.go). float32 round-trips through the raw bit pattern, so
// storage is bit-exact; the fp16 working weights are never stored — the
// bucket republishes them from the masters (the paper's recombine).

// slotBytes is the file footprint of one version of an n-element bucket.
func slotBytes(n int) int64 { return 8 + 12*int64(n) }

// encodeSlot serializes one version of a bucket's state into buf, which
// must hold slotBytes(len(sh.Master)) bytes, and returns buf.
func encodeSlot(buf []byte, sh *optim.MixedShard) []byte {
	binary.LittleEndian.PutUint64(buf, uint64(sh.State.Step))
	rest := iolane.PutFloat32s(buf[8:], sh.Master)
	rest = iolane.PutFloat32s(rest, sh.State.M)
	iolane.PutFloat32s(rest, sh.State.V)
	return buf
}

// decodeSlot decodes an elems-element slot from buf into sh, one version
// of a bucket's state.
// Truncated input, or a version whose arrays do not hold exactly elems
// entries (a negative count included), is an error found before sh is
// touched, so a rejected decode leaves it intact.
func decodeSlot(sh *optim.MixedShard, elems int, buf []byte) error {
	if int64(len(buf)) < slotBytes(elems) {
		return fmt.Errorf("stv: %d-elem slot truncated: %d bytes < %d", elems, len(buf), slotBytes(elems))
	}
	if sh == nil || sh.State == nil ||
		len(sh.Master) != elems || len(sh.State.M) != elems || len(sh.State.V) != elems {
		return fmt.Errorf("stv: %d-elem slot decoded into a mismatched state", elems)
	}
	sh.State.Step = int(int64(binary.LittleEndian.Uint64(buf)))
	rest := iolane.Float32s(sh.Master, buf[8:])
	rest = iolane.Float32s(sh.State.M, rest)
	iolane.Float32s(sh.State.V, rest)
	return nil
}
