package stv

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/tensor"
)

// fuzzState builds a bucket state from fuzz-chosen scalars: n elements
// seeded from a, b, with an optional snapshot at snapStep.
func fuzzState(n int, a, b float32, step int, snap bool, snapStep int) *BucketState {
	master := make([]float32, n)
	for i := range master {
		master[i] = a + float32(i)*b
	}
	st := &BucketState{Shard: optim.NewMixedShard(master)}
	st.Shard.State.Step = step
	for i := range st.Shard.State.M {
		st.Shard.State.M[i] = b - float32(i)*a
		st.Shard.State.V[i] = float32(i) * a * b
	}
	if snap {
		st.Snap = &optim.Snapshot{
			Step:   snapStep,
			Master: make([]float32, n),
			M:      make([]float32, n),
			V:      make([]float32, n),
		}
		for i := range st.Snap.Master {
			st.Snap.Master[i] = a * float32(i+1)
			st.Snap.M[i] = b * float32(i+1)
			st.Snap.V[i] = a + b
		}
	}
	return st
}

func sameF32(t *testing.T, label string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: bit divergence at %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// FuzzRecordRoundTrip: encodeRecord → decodeRecord is the identity on
// every field (bit patterns, not float equality — NaN payloads and
// signed zeros must survive), with and without a snapshot, into both a
// fresh state and a reused spare — and the encoded bytes are the
// reference encoder's (refEncodeRecord).
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint8(4), float32(1.5), float32(-0.25), 7, true, 3)
	f.Add(uint8(1), float32(0), float32(0), 0, false, 0)
	f.Add(uint8(16), float32(math.Inf(1)), float32(math.NaN()), 123456, true, 99)
	f.Fuzz(func(t *testing.T, nRaw uint8, a, b float32, step int, snap bool, snapStep int) {
		n := int(nRaw%32) + 1
		st := fuzzState(n, a, b, step, snap, snapStep)
		buf := encodeRecord(make([]byte, recordBytes(n)), st)

		// Byte for byte the reference encoder's output, over a buffer that
		// carries a previous encoding.
		stale := bytes.Repeat([]byte{0xAA}, len(buf))
		if !bytes.Equal(encodeRecord(bytes.Clone(stale), st), refEncodeRecord(stale, st)) {
			t.Fatal("record bytes differ from the reference encoder's")
		}

		check := func(label string, got *BucketState) {
			t.Helper()
			sameF32(t, label+" master", st.Shard.Master, got.Shard.Master)
			sameF32(t, label+" m", st.Shard.State.M, got.Shard.State.M)
			sameF32(t, label+" v", st.Shard.State.V, got.Shard.State.V)
			if got.Shard.State.Step != step {
				t.Fatalf("%s: step %d, want %d", label, got.Shard.State.Step, step)
			}
			if snap != (got.Snap != nil) {
				t.Fatalf("%s: snapshot presence %v, want %v", label, got.Snap != nil, snap)
			}
			if snap {
				sameF32(t, label+" snap master", st.Snap.Master, got.Snap.Master)
				sameF32(t, label+" snap m", st.Snap.M, got.Snap.M)
				sameF32(t, label+" snap v", st.Snap.V, got.Snap.V)
				if got.Snap.Step != snapStep {
					t.Fatalf("%s: snap step %d, want %d", label, got.Snap.Step, snapStep)
				}
			}
			// The working half is re-derived from the decoded masters, so
			// re-encoding must reproduce the exact bytes.
			if !bytes.Equal(buf, encodeRecord(make([]byte, recordBytes(n)), got)) {
				t.Fatalf("%s: re-encoding diverges", label)
			}
		}

		fresh, err := decodeRecord(nil, n, buf)
		if err != nil {
			t.Fatalf("decode of a valid record failed: %v", err)
		}
		check("fresh", fresh)

		// Reuse a dissimilar spare (opposite snapshot presence) — decode
		// must fully overwrite it.
		spare := fuzzState(n, b, a, step+1, !snap, snapStep+1)
		reused, err := decodeRecord(spare, n, buf)
		if err != nil {
			t.Fatalf("decode into spare failed: %v", err)
		}
		check("spare", reused)
	})
}

// FuzzDecodeRecordRejects: decodeRecord over arbitrary bytes and element
// counts never panics; invalid input (truncation, corrupt flag) returns
// an error and leaves the caller's spare untouched.
func FuzzDecodeRecordRejects(f *testing.F) {
	f.Add(4, []byte{})
	f.Add(4, make([]byte, 17))
	f.Add(-1, make([]byte, 200))
	f.Add(2, bytes.Repeat([]byte{0xff}, 65))
	// A valid 1-elem record with the snapshot flag set but the snapshot
	// arrays truncated.
	short := make([]byte, 17+12)
	short[16] = 1
	f.Add(1, short)
	f.Fuzz(func(t *testing.T, elems int, buf []byte) {
		if elems > 1<<16 {
			elems = 1 << 16 // bound allocation, not validity
		}
		spare := fuzzState(3, 1, 2, 5, true, 4)
		want := encodeRecord(make([]byte, recordBytes(3)), spare)
		st, err := decodeRecord(spare, elems, buf)
		if err != nil {
			// Rejected: spare must be byte-for-byte intact.
			if !bytes.Equal(want, encodeRecord(make([]byte, recordBytes(3)), spare)) {
				t.Fatal("rejected decode mutated the spare state")
			}
			return
		}
		if elems != 3 {
			t.Fatalf("decode accepted a %d-elem record into a 3-elem spare", elems)
		}
		if st != spare {
			t.Fatal("successful decode into a spare returned a different state")
		}
		// Accepted: the flag byte must have been valid.
		if len(buf) > 16 && buf[16] > 1 {
			t.Fatalf("decode accepted corrupt flag %#x", buf[16])
		}
	})
}

// TestDecodeRecordRejectsCorruptFlag pins the non-fuzz regression: a
// record whose snapshot flag byte is neither 0 nor 1 is rejected before
// any state is written.
func TestDecodeRecordRejectsCorruptFlag(t *testing.T) {
	st := fuzzState(2, 1, 2, 3, false, 0)
	buf := encodeRecord(make([]byte, recordBytes(2)), st)
	buf[16] = 7
	if _, err := decodeRecord(nil, 2, buf); err == nil {
		t.Fatal("corrupt snapshot flag accepted")
	}
	// Truncation below the live floor is rejected too.
	if _, err := decodeRecord(nil, 2, buf[:recordLiveBytes(2, false)-1]); err == nil {
		t.Fatal("truncated record accepted")
	}
	// And a header claiming a snapshot without the bytes for one.
	buf[16] = 1
	if _, err := decodeRecord(nil, 2, buf[:recordLiveBytes(2, false)]); err == nil {
		t.Fatal("snapshot-flagged record without snapshot bytes accepted")
	}
}

// fuzzBuckets builds the 2-bucket (3 + 5 element) layout FuzzReadCheckpoint
// loads into, over a fresh DRAM store.
func fuzzBuckets() []*Bucket {
	store := NewDRAMStore()
	var out []*Bucket
	for i, n := range []int{3, 5} {
		w := tensor.New(n)
		for j := range w.Data {
			w.Data[j] = float32(i+1) + float32(j)/8
		}
		out = append(out, NewBucket(nn.Params{{Name: "p", W: w, G: tensor.New(n)}}, store, i))
	}
	return out
}

// FuzzReadCheckpoint: ReadCheckpoint over arbitrary bytes never panics,
// and whatever it accepts leaves counters a run could have written — a
// finite loss scale inside the scaler's range, a non-negative step index,
// streak and per-bucket Adam step. The seeds are a real checkpoint and the
// single-word corruptions of it that used to load: a bucket step of -3
// (the next step's bias correction is NaN), a scale of +Inf (every later
// step skips), and negative run counters.
func FuzzReadCheckpoint(f *testing.F) {
	src := fuzzBuckets()
	for _, bk := range src {
		for i := range bk.grad {
			bk.grad[i] = 0.25 * float32(i+1)
		}
		bk.DirectStep(optim.DefaultConfig(), 1)
	}
	scaler := optim.NewLossScaler()
	scaler.GoodSteps = 3
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, 7, scaler, src); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	// Offsets: magic 4, then int64 {buckets, stepIndex, goodSteps}, the
	// float64 scale, then per bucket int64 {elems, step} and the arrays.
	const stepIndexOff, goodStepsOff, scaleOff, bucketStepOff = 12, 20, 28, 44
	for _, m := range []struct {
		off   int
		word  uint64
		loads bool
	}{
		{bucketStepOff, uint64(1<<64 - 3), false},
		{stepIndexOff, uint64(1<<64 - 1), false},
		{goodStepsOff, uint64(1<<64 - 1), false},
		{scaleOff, math.Float64bits(math.Inf(1)), false},
		{scaleOff, math.Float64bits(math.Inf(-1)), false},
		{scaleOff, math.Float64bits(math.NaN()), false},
		{scaleOff, math.Float64bits(-2), false},
		{scaleOff, math.Float64bits(0.5), false},
		{scaleOff, math.Float64bits(1 << 30), false},
		{scaleOff, 0, true}, // trained unscaled: the scaler keeps its own state
		{bucketStepOff, 2, true},
	} {
		ckpt := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(ckpt[m.off:], m.word)
		_, err := ReadCheckpoint(bytes.NewReader(ckpt), optim.NewLossScaler(), fuzzBuckets())
		if (err == nil) != m.loads {
			f.Fatalf("word %#x at offset %d: loads = %v (err %v), want %v", m.word, m.off, err == nil, err, m.loads)
		}
		f.Add(ckpt)
	}
	f.Add(good[:len(good)-5])

	f.Fuzz(func(t *testing.T, ckpt []byte) {
		dst := fuzzBuckets()
		sc := optim.NewLossScaler()
		step, err := ReadCheckpoint(bytes.NewReader(ckpt), sc, dst)
		if err != nil {
			return
		}
		if step < 0 || sc.GoodSteps < 0 {
			t.Fatalf("accepted negative counters: step %d, streak %d", step, sc.GoodSteps)
		}
		if !(sc.Scale >= sc.MinScale && sc.Scale <= sc.MaxScale) {
			t.Fatalf("accepted loss scale %v outside [%v, %v]", sc.Scale, sc.MinScale, sc.MaxScale)
		}
		for _, bk := range dst {
			st := bk.store.Acquire(bk.idx)
			adamStep := st.Shard.State.Step
			bk.store.Release(bk.idx, ReleaseClean)
			if adamStep < 0 {
				t.Fatalf("accepted bucket %d with Adam step %d", bk.idx, adamStep)
			}
		}
	})
}
