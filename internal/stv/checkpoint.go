package stv

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"superoffload/internal/fp16"
	"superoffload/internal/optim"
)

// Checkpointing: serialize the CPU-resident training state (fp32 master
// weights, Adam moments, step counters, loss scale) so training can resume
// exactly. The in-flight validation must be resolved first (Flush); a
// checkpoint of a speculative, unvalidated step would not be exact.
//
// The format is defined over the global bucket order, independent of which
// rank owns each bucket, so a single-rank engine and an R-rank
// data-parallel engine on the same trajectory write byte-identical
// checkpoints and can restore each other's.

// checkpointMagic identifies the format; bump on layout changes.
const checkpointMagic uint32 = 0x53_4F_43_32 // "SOC2"

// WriteCheckpoint serializes training state over buckets in the given
// (global) order. The scaler (nil when loss scaling is off) contributes
// the scale and the overflow-free streak, both needed for exact resume.
func WriteCheckpoint(w io.Writer, stepIndex int, scaler *optim.LossScaler, buckets []*Bucket) error {
	if err := binary.Write(w, binary.LittleEndian, checkpointMagic); err != nil {
		return err
	}
	scale, goodSteps := 0.0, 0
	if scaler != nil {
		scale, goodSteps = scaler.Scale, scaler.GoodSteps
	}
	header := []int64{int64(len(buckets)), int64(stepIndex), int64(goodSteps)}
	if err := binary.Write(w, binary.LittleEndian, header); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, scale); err != nil {
		return err
	}
	for _, bk := range buckets {
		if err := bk.writeRecord(w); err != nil {
			return err
		}
	}
	return nil
}

// writeRecord streams one bucket's state (acquired from its store, so a
// windowed NVMe store pages the bucket in just for the write). The layout
// carries only the current version, never the rollback point —
// checkpoints are taken flushed, with no speculation outstanding — so the
// bytes are identical across store backends.
func (b *Bucket) writeRecord(w io.Writer) error {
	st := b.store.Acquire(b.idx)
	defer b.store.Release(b.idx, ReleaseClean)
	if err := binary.Write(w, binary.LittleEndian, int64(b.Size())); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(st.Shard.State.Step)); err != nil {
		return err
	}
	for _, arr := range [][]float32{st.Shard.Master, st.Shard.State.M, st.Shard.State.V} {
		if err := binary.Write(w, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	return nil
}

// ReadCheckpoint restores state written by WriteCheckpoint into buckets
// (which must match the checkpoint's layout), republishing the
// fp16-rounded weights to each bucket's model tensors. A non-nil scaler
// receives the checkpointed scale and overflow-free streak (skipped when
// the checkpoint trained unscaled). Counters that no run can have written
// — a negative step index, streak or bucket step; a loss scale that is
// negative, NaN, infinite or outside the scaler's [MinScale, MaxScale] —
// are rejected before the state they describe is overwritten. Returns the
// restored step index.
func ReadCheckpoint(r io.Reader, scaler *optim.LossScaler, buckets []*Bucket) (stepIndex int, err error) {
	var magic uint32
	if err = binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return 0, err
	}
	if magic != checkpointMagic {
		return 0, fmt.Errorf("stv: bad checkpoint magic %#x", magic)
	}
	header := make([]int64, 3)
	if err = binary.Read(r, binary.LittleEndian, header); err != nil {
		return 0, err
	}
	if int(header[0]) != len(buckets) {
		return 0, fmt.Errorf("stv: checkpoint has %d buckets, engine has %d", header[0], len(buckets))
	}
	if header[1] < 0 || header[2] < 0 {
		return 0, fmt.Errorf("stv: checkpoint has negative counters: step %d, overflow-free streak %d", header[1], header[2])
	}
	stepIndex = int(header[1])
	var scale float64
	if err = binary.Read(r, binary.LittleEndian, &scale); err != nil {
		return 0, err
	}
	// 0 means the checkpoint trained unscaled; anything else must be a
	// scale a LossScaler can hold (the negated test also catches NaN).
	if !(scale >= 0) || math.IsInf(scale, 1) ||
		(scale > 0 && scaler != nil && (scale < scaler.MinScale || scale > scaler.MaxScale)) {
		return 0, fmt.Errorf("stv: checkpoint has unusable loss scale %v", scale)
	}
	if scaler != nil && scale > 0 {
		scaler.Scale = scale
		scaler.GoodSteps = int(header[2])
	}
	for _, bk := range buckets {
		if err = bk.readRecord(r); err != nil {
			return 0, err
		}
	}
	return stepIndex, nil
}

// readRecord restores one bucket's current version through its store,
// dropping the stale previous version (the next speculative step
// allocates it again) with any outstanding speculation, re-deriving the
// fp16 working copy, and republishing the rounded weights to the
// bucket's model tensors.
func (b *Bucket) readRecord(r io.Reader) error {
	st := b.store.Acquire(b.idx)
	defer b.store.Release(b.idx, ReleaseFlush)
	var n, step int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if int(n) != b.Size() {
		return fmt.Errorf("stv: bucket size mismatch: checkpoint %d, engine %d", n, b.Size())
	}
	if err := binary.Read(r, binary.LittleEndian, &step); err != nil {
		return err
	}
	if step < 0 {
		return fmt.Errorf("stv: bucket %d has negative Adam step %d", b.idx, step)
	}
	st.Shard.State.Step = int(step)
	for _, arr := range [][]float32{st.Shard.Master, st.Shard.State.M, st.Shard.State.V} {
		if err := binary.Read(r, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	st.prev, b.dirty = nil, false
	st.Shard.Half = fp16.Cast(st.Shard.Half[:0], st.Shard.Master)
	PublishHalf(b.group, st.Shard.Half)
	return nil
}

// Save writes the run's state over buckets in the given (global) order.
// It fails if a validation is in flight.
func (v *Verdict) Save(w io.Writer, buckets []*Bucket) error {
	if v.pending {
		return fmt.Errorf("stv: Flush before Save (validation in flight)")
	}
	return WriteCheckpoint(w, v.step, v.Scaler, buckets)
}

// Load restores state written by Save into buckets of the same layout,
// republishing the fp16-rounded weights to their model tensors. It fails
// if a validation is in flight. A Load that fails part-way leaves the
// engine partially restored: buckets before the bad record hold the
// checkpoint's state, the rest (and the step counter) the old run's. Load
// a good checkpoint, or discard the engine.
func (v *Verdict) Load(r io.Reader, buckets []*Bucket) error {
	if v.pending {
		return fmt.Errorf("stv: Flush before Load (validation in flight)")
	}
	step, err := ReadCheckpoint(r, v.Scaler, buckets)
	if err != nil {
		return err
	}
	v.step = step
	return nil
}

// Save writes the trainer state. It fails if a validation is in flight.
func (t *Trainer) Save(w io.Writer) error { return t.ctl.Save(w, t.buckets) }

// Load restores trainer state saved by Save into a trainer built over the
// same model architecture and bucket configuration, then republishes the
// fp16-rounded weights to the model.
func (t *Trainer) Load(r io.Reader) error { return t.ctl.Load(r, t.buckets) }
