package stv

import (
	"encoding/binary"
	"fmt"

	"superoffload/internal/fp16"
	"superoffload/internal/iolane"
	"superoffload/internal/optim"
)

// Bucket record codec of the file-backed store (MLPStore, at every
// path count). Layout of an n-element record: step u64 | snapshot step u64 | snapshot flag byte, then the
// fp32 master/m/v arrays and their snapshot copies (snapshot space is
// always reserved so offsets stay fixed). float32 round-trips through
// the raw bit pattern, so storage is bit-exact; the fp16 working copy is
// never stored — decode re-derives it from the masters (the paper's
// recombine).

// recordBytes is the file footprint of an n-element bucket: step +
// snapshot step + snapshot flag, then master/m/v and their snapshot
// copies (snapshot space is always reserved so offsets stay fixed).
func recordBytes(n int) int64 { return recordHeaderBytes + 24*int64(n) }

// recordHeaderBytes is the record header: step u64, snapshot step u64,
// snapshot flag byte.
const recordHeaderBytes = 17

// recordLiveBytes is the number of meaningful bytes in an n-element
// record: the snapshot arrays are only populated when the flag byte is
// set, so decode accepts buffers truncated to this floor.
func recordLiveBytes(n int, snap bool) int64 {
	if snap {
		return recordBytes(n)
	}
	return recordHeaderBytes + 12*int64(n)
}

// encodeRecord serializes a bucket state into buf, which must hold
// recordBytes(len(st.Shard.Master)) bytes, and returns buf. The header
// is written unconditionally because the buffer may carry a previous
// encoding's snapshot flag.
func encodeRecord(buf []byte, st *BucketState) []byte {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(st.Shard.State.Step))
	le.PutUint64(buf[8:], 0)
	buf[16] = 0
	rest := buf[recordHeaderBytes:]
	rest = iolane.PutFloat32s(rest, st.Shard.Master)
	rest = iolane.PutFloat32s(rest, st.Shard.State.M)
	rest = iolane.PutFloat32s(rest, st.Shard.State.V)
	if st.Snap != nil {
		le.PutUint64(buf[8:], uint64(st.Snap.Step))
		buf[16] = 1
		rest = iolane.PutFloat32s(rest, st.Snap.Master)
		rest = iolane.PutFloat32s(rest, st.Snap.M)
		iolane.PutFloat32s(rest, st.Snap.V)
	}
	return buf
}

// decodeRecord reconstructs an elems-element bucket state from buf,
// decoding into spare when non-nil (allocation reuse). The buffer and
// the spare's geometry are validated before spare is touched, so a
// rejected decode leaves spare intact: truncated or corrupted input —
// or a spare whose arrays do not hold exactly elems entries — returns
// an error instead of panicking or partially overwriting the caller's
// state.
func decodeRecord(spare *BucketState, elems int, buf []byte) (*BucketState, error) {
	if elems < 0 {
		return nil, fmt.Errorf("stv: record element count %d is negative", elems)
	}
	if int64(len(buf)) < recordLiveBytes(elems, false) {
		return nil, fmt.Errorf("stv: %d-elem record truncated: %d bytes < %d",
			elems, len(buf), recordLiveBytes(elems, false))
	}
	flag := buf[16]
	if flag > 1 {
		return nil, fmt.Errorf("stv: record snapshot flag corrupt: %#x", flag)
	}
	snap := flag == 1
	if snap && int64(len(buf)) < recordLiveBytes(elems, true) {
		return nil, fmt.Errorf("stv: %d-elem record snapshot truncated: %d bytes < %d",
			elems, len(buf), recordLiveBytes(elems, true))
	}
	if spare != nil {
		sh := spare.Shard
		if sh == nil || sh.State == nil ||
			len(sh.Master) != elems || len(sh.State.M) != elems || len(sh.State.V) != elems {
			return nil, fmt.Errorf("stv: %d-elem record decoded into a mismatched spare state", elems)
		}
	}
	st := spare
	if st == nil {
		st = &BucketState{Shard: &optim.MixedShard{
			Master: make([]float32, elems),
			State:  optim.NewState(elems),
		}}
	}
	le := binary.LittleEndian
	shard := st.Shard
	shard.State.Step = int(int64(le.Uint64(buf[0:])))
	rest := iolane.Float32s(shard.Master, buf[recordHeaderBytes:])
	rest = iolane.Float32s(shard.State.M, rest)
	rest = iolane.Float32s(shard.State.V, rest)
	shard.Half = fp16.Cast(shard.Half, shard.Master)
	if snap {
		// A reused spare's snapshot buffers are only trusted at the right
		// size; anything else is reallocated rather than read past.
		if st.Snap == nil || len(st.Snap.Master) != elems ||
			len(st.Snap.M) != elems || len(st.Snap.V) != elems {
			st.Snap = &optim.Snapshot{
				Master: make([]float32, elems),
				M:      make([]float32, elems),
				V:      make([]float32, elems),
			}
		}
		st.Snap.Step = int(int64(le.Uint64(buf[8:])))
		rest = iolane.Float32s(st.Snap.Master, rest)
		rest = iolane.Float32s(st.Snap.M, rest)
		iolane.Float32s(st.Snap.V, rest)
	} else {
		st.Snap = nil
	}
	return st, nil
}
