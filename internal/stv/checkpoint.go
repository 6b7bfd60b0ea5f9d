package stv

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Checkpointing: serialize the CPU-resident training state (fp32 master
// weights, Adam moments, step counters, loss scale) so training can resume
// exactly, once the pending verdict is resolved (Flush). The format
// is defined over the global bucket order, independent of which rank owns
// each bucket, so every engine shape on the same trajectory writes the
// same bytes and can restore any other's. Integers are little-endian, and
// every byte sits under the magic or the crc32 (IEEE) closing its header
// or record:
//
//	header  magic u32 "SOC3", buckets i64, step index i64,
//	        overflow-free streak i64, loss scale f64, crc32 u32    40 bytes
//	record  elements i64, the bucket's current version as the
//	        flash store's slot (encodeSlot), crc32 u32       20 + 12n bytes
//
// with one record per bucket in global order and no trailer: a truncated
// checkpoint fails a read, and Load installs nothing before the last
// record has verified.

// checkpointMagic identifies the format; bump on layout changes.
const checkpointMagic uint32 = 0x53_4F_43_33 // "SOC3"

// headerBytes is the header's size, recordBytes an n-element bucket's
// record's.
const headerBytes = 40

func recordBytes(n int) int { return 12 + int(slotBytes(n)) }

var le = binary.LittleEndian

// seal writes the crc32 of b's bytes before its last four into them;
// sealed reports whether they hold it.
func seal(b []byte) []byte {
	le.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

func sealed(b []byte) bool { return le.Uint32(b[len(b)-4:]) == crc32.ChecksumIEEE(b[:len(b)-4]) }

// ioBuffer returns a buffer for the header and any bucket's record.
func ioBuffer(buckets []*Bucket) []byte {
	n := 0
	for _, bk := range buckets {
		n = max(n, bk.Size())
	}
	return make([]byte, max(headerBytes, recordBytes(n)))
}

// ready refuses op while a verdict is pending or once the run is
// closed.
func (v *Verdict) ready(op string) error {
	if v.pending {
		return fmt.Errorf("stv: Flush before %s (verdict pending)", op)
	}
	return v.Live()
}

// Save writes the run's state over buckets in the given (global) order:
// each bucket's current version, acquired just for its record, so the
// bytes are identical across stores. It fails once the run is closed or
// while a verdict is pending.
func (v *Verdict) Save(w io.Writer, buckets []*Bucket) error {
	if err := v.ready("Save"); err != nil {
		return err
	}
	scale, goodSteps := 0.0, 0
	if v.cfg.Scaler != nil {
		scale, goodSteps = v.cfg.Scaler.Scale, v.cfg.Scaler.GoodSteps
	}
	buf := ioBuffer(buckets)
	hdr := buf[:headerBytes]
	le.PutUint32(hdr, checkpointMagic)
	le.PutUint64(hdr[4:], uint64(len(buckets)))
	le.PutUint64(hdr[12:], uint64(v.step))
	le.PutUint64(hdr[20:], uint64(goodSteps))
	le.PutUint64(hdr[28:], math.Float64bits(scale))
	if _, err := w.Write(seal(hdr)); err != nil {
		return err
	}
	for _, bk := range buckets {
		rec := buf[:recordBytes(bk.Size())]
		le.PutUint64(rec, uint64(bk.Size()))
		st := bk.store.Acquire(bk.idx)
		encodeSlot(rec[8:], st.Shard)
		bk.store.Release(bk.idx, ReleaseClean)
		if _, err := w.Write(seal(rec)); err != nil {
			return err
		}
	}
	return nil
}

// Load restores state written by Save into buckets of the same layout,
// republishing the fp16-rounded weights to their model tensors, and
// restores everything or changes nothing: every record is staged into its
// bucket's non-current version, and only once the last has verified do
// the buckets flip and the step counter and a non-nil Scaler's scale and
// streak (unless the checkpoint trained unscaled) change. Besides a
// failed read or crc32 it rejects counters no run writes: a negative step
// index, streak or bucket step, or a loss scale that is negative, NaN,
// infinite or outside the scaler's [MinScale, MaxScale]. The buckets'
// owners must be quiescent. It fails once the run is closed or while a
// verdict is pending.
func (v *Verdict) Load(r io.Reader, buckets []*Bucket) error {
	if err := v.ready("Load"); err != nil {
		return err
	}
	buf := ioBuffer(buckets)
	hdr := buf[:headerBytes]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("stv: checkpoint header: %w", err)
	}
	if m := le.Uint32(hdr); m != checkpointMagic {
		return fmt.Errorf("stv: checkpoint magic %#x is not SOC3 (%#x)", m, checkpointMagic)
	}
	if !sealed(hdr) {
		return fmt.Errorf("stv: checkpoint header fails its crc32")
	}
	n, step, goodSteps := int64(le.Uint64(hdr[4:])), int64(le.Uint64(hdr[12:])), int64(le.Uint64(hdr[20:]))
	scale := math.Float64frombits(le.Uint64(hdr[28:]))
	if n != int64(len(buckets)) {
		return fmt.Errorf("stv: checkpoint has %d buckets, engine has %d", n, len(buckets))
	}
	if step < 0 || goodSteps < 0 {
		return fmt.Errorf("stv: checkpoint has negative counters: step %d, overflow-free streak %d", step, goodSteps)
	}
	// 0 means the checkpoint trained unscaled; anything else must be a
	// scale a LossScaler can hold (the negated test also catches NaN).
	if !(scale >= 0) || math.IsInf(scale, 1) ||
		(scale > 0 && v.cfg.Scaler != nil && (scale < v.cfg.Scaler.MinScale || scale > v.cfg.Scaler.MaxScale)) {
		return fmt.Errorf("stv: checkpoint has unusable loss scale %v", scale)
	}
	// A failed Load drops the versions it staged into, a committed one
	// those it flipped away from: with no verdict pending a bucket's
	// other version is stale, and its next speculative step allocates it.
	for i, bk := range buckets {
		if err := bk.stage(r, buf); err != nil {
			for _, bk := range buckets[:i+1] {
				st := bk.store.Acquire(bk.idx)
				st.prev = nil
				bk.store.Release(bk.idx, ReleaseClean)
			}
			return err
		}
	}
	for _, bk := range buckets {
		bk.dirty = false
		bk.turn(true)
	}
	if v.cfg.Scaler != nil && scale > 0 {
		v.cfg.Scaler.Scale, v.cfg.Scaler.GoodSteps = scale, int(goodSteps)
	}
	v.step = int(step)
	return nil
}

// stage reads the bucket's record through buf, verifies it, and decodes
// it into the bucket's non-current version, allocating that version if
// the bucket has only ever stepped in place. A record of another element
// count cannot verify: its count is checked first, for the better error.
// The staged version must outlive the release: DRAMStore keeps every
// state, and each MLPStore record owns its bucket's whole state, both
// versions, wherever it lives (mlpRecord.st).
func (b *Bucket) stage(r io.Reader, buf []byte) error {
	rec := buf[:recordBytes(b.Size())]
	if _, err := io.ReadFull(r, rec); err != nil {
		return fmt.Errorf("stv: checkpoint record of bucket %d: %w", b.idx, err)
	}
	if n := int64(le.Uint64(rec)); n != int64(b.Size()) {
		return fmt.Errorf("stv: bucket %d size mismatch: checkpoint %d, engine %d", b.idx, n, b.Size())
	}
	if !sealed(rec) {
		return fmt.Errorf("stv: checkpoint record of bucket %d fails its crc32", b.idx)
	}
	if step := int64(le.Uint64(rec[8:])); step < 0 {
		return fmt.Errorf("stv: bucket %d has negative Adam step %d", b.idx, step)
	}
	st := b.store.Acquire(b.idx)
	defer b.store.Release(b.idx, ReleaseClean)
	return decodeSlot(st.other(), b.Size(), rec[8:])
}
