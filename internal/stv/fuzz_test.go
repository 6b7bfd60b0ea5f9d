package stv

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"superoffload/internal/hw"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/tensor"
)

// fuzzState builds a bucket state from fuzz-chosen scalars: n elements
// seeded from a, b, at Adam step step.
func fuzzState(n int, a, b float32, step int) *BucketState {
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
	return st
}

// versions encodes both of st's versions and its slot: everything a
// decode may or may not touch.
func versions(st *BucketState) []byte {
	n := len(st.Shard.Master)
	out := encodeSlot(make([]byte, slotBytes(n)), st.Shard)
	if st.prev != nil {
		out = append(out, encodeSlot(make([]byte, slotBytes(n)), st.prev)...)
	}
	return append(out, byte(st.slot))
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

// FuzzRecordRoundTrip: encodeSlot → decodeSlot is the identity on every
// field (bit patterns, not float equality — NaN payloads and signed zeros
// must survive), into a fresh state and into the current version of one
// holding two dissimilar versions, whose other version and slot it must
// leave alone — and the encoded bytes are the reference encoder's
// (refEncodeSlot).
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint8(4), float32(1.5), float32(-0.25), 7)
	f.Add(uint8(1), float32(0), float32(0), 0)
	f.Add(uint8(16), float32(math.Inf(1)), float32(math.NaN()), 123456)
	f.Fuzz(func(t *testing.T, nRaw uint8, a, b float32, step int) {
		n := int(nRaw%32) + 1
		st := fuzzState(n, a, b, step)
		buf := encodeSlot(make([]byte, slotBytes(n)), st.Shard)

		// Byte for byte the reference encoder's output, over a buffer that
		// carries a previous encoding.
		stale := bytes.Repeat([]byte{0xAA}, len(buf))
		if !bytes.Equal(encodeSlot(bytes.Clone(stale), st.Shard), refEncodeSlot(stale, st.Shard)) {
			t.Fatal("slot bytes differ from the reference encoder's")
		}

		check := func(label string, got *BucketState) {
			t.Helper()
			if err := decodeSlot(got.Shard, n, buf); err != nil {
				t.Fatalf("%s: decode of a valid slot failed: %v", label, err)
			}
			sameF32(t, label+" master", st.Shard.Master, got.Shard.Master)
			sameF32(t, label+" m", st.Shard.State.M, got.Shard.State.M)
			sameF32(t, label+" v", st.Shard.State.V, got.Shard.State.V)
			if got.Shard.State.Step != step {
				t.Fatalf("%s: step %d, want %d", label, got.Shard.State.Step, step)
			}
			// Re-encoding must reproduce the exact bytes.
			if !bytes.Equal(buf, encodeSlot(make([]byte, slotBytes(n)), got.Shard)) {
				t.Fatalf("%s: re-encoding diverges", label)
			}
		}
		check("fresh", &BucketState{Shard: optim.NewMixedShard(make([]float32, n))})

		// A state on its second version: decode overwrites the current
		// one and leaves the previous version and the slot as they were.
		two := fuzzState(n, b, a, step+1)
		ahead(two)
		prev := versions(two)[slotBytes(n):]
		check("two versions", two)
		if !bytes.Equal(prev, versions(two)[slotBytes(n):]) {
			t.Fatal("decode touched the previous version or the slot")
		}
	})
}

// FuzzDecodeRecordRejects: decodeSlot over arbitrary bytes and element
// counts never panics; invalid input (a negative or mismatched count,
// truncation) returns an error and leaves both of the caller's versions
// untouched.
func FuzzDecodeRecordRejects(f *testing.F) {
	f.Add(4, []byte{})
	f.Add(4, make([]byte, 17))
	f.Add(-1, make([]byte, 200))
	f.Add(2, bytes.Repeat([]byte{0xff}, 65))
	// A 3-elem slot one byte short.
	f.Add(3, make([]byte, slotBytes(3)-1))
	f.Fuzz(func(t *testing.T, elems int, buf []byte) {
		st := fuzzState(3, 1, 2, 5)
		ahead(st)
		want := versions(st)
		if err := decodeSlot(st.Shard, elems, buf); err != nil {
			if !bytes.Equal(want, versions(st)) {
				t.Fatal("rejected decode mutated the state")
			}
			return
		}
		if elems != 3 {
			t.Fatalf("decode accepted a %d-elem slot into a 3-elem state", elems)
		}
		if int64(len(buf)) < slotBytes(3) {
			t.Fatalf("decode accepted a %d-byte 3-elem slot", len(buf))
		}
		if !bytes.Equal(want[slotBytes(3):], versions(st)[slotBytes(3):]) {
			t.Fatal("accepted decode touched the previous version or the slot")
		}
	})
}

// fuzzBuckets builds the 2-bucket (3 + 5 element) layout the checkpoint
// fuzzers load into, over a fresh DRAM store.
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

// fuzzCheckpoint is the checkpoint the checkpoint fuzzers corrupt: the
// fuzzBuckets layout stepped once, saved at step index 7 under a loss
// scaler 3 steps into an overflow-free streak.
func fuzzCheckpoint(f *testing.F) []byte {
	src := fuzzBuckets()
	for _, bk := range src {
		for i := range bk.grad {
			bk.grad[i] = 0.25 * float32(i+1)
		}
		bk.SpeculativeStep(optim.DefaultConfig(), 1)
		bk.Apply(Resolution{Action: Commit})
	}
	v := &Verdict{cfg: Config{Scaler: optim.NewLossScaler()}, step: 7}
	v.cfg.Scaler.GoodSteps = 3
	var buf bytes.Buffer
	if err := v.Save(&buf, src); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// Offsets into fuzzCheckpoint: the header's counters, then its two
// records — elems i64, the slot (Adam step u64, master, m, v) and a
// crc32, 20 + 12n bytes for n elements.
const (
	stepIndexOff, goodStepsOff, scaleOff = 12, 20, 28
	record0Off, record1Off               = headerBytes, headerBytes + 20 + 12*3
)

// FuzzReadCheckpoint: Load over arbitrary bytes never panics, and
// whatever it accepts leaves counters a run could have written — a
// finite loss scale inside the scaler's range, a non-negative step index,
// streak and per-bucket Adam step. The seeds are a real checkpoint and
// the single-word corruptions of it that once loaded, each re-sealed
// with the crc32 that covers it so that the check behind the crc is what
// rejects it: a bucket step of -3 (the next step's bias correction is
// NaN), a scale of +Inf (every later step skips), and negative run
// counters.
func FuzzReadCheckpoint(f *testing.F) {
	good := fuzzCheckpoint(f)
	f.Add(good)
	const bucketStepOff = record0Off + 8
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
		ckpt := bytes.Clone(good)
		binary.LittleEndian.PutUint64(ckpt[m.off:], m.word)
		if m.off < record0Off {
			seal(ckpt[:record0Off])
		} else {
			seal(ckpt[record0Off:record1Off])
		}
		err := (&Verdict{cfg: Config{Scaler: optim.NewLossScaler()}}).Load(bytes.NewReader(ckpt), fuzzBuckets())
		if (err == nil) != m.loads || !m.loads && strings.Contains(err.Error(), "crc32") {
			f.Fatalf("word %#x at offset %d: loads = %v (err %v), want %v past the crc32", m.word, m.off, err == nil, err, m.loads)
		}
		f.Add(ckpt)
	}
	f.Add(good[:len(good)-5])

	f.Fuzz(func(t *testing.T, ckpt []byte) {
		dst := fuzzBuckets()
		v := &Verdict{cfg: Config{Scaler: optim.NewLossScaler()}}
		if v.Load(bytes.NewReader(ckpt), dst) != nil {
			return
		}
		sc := v.cfg.Scaler
		if v.StepIndex() < 0 || sc.GoodSteps < 0 {
			t.Fatalf("accepted negative counters: step %d, streak %d", v.StepIndex(), sc.GoodSteps)
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

// FuzzCheckpointBitFlip: a checkpoint with any one bit flipped fails to
// Load, and the failed Load changes nothing — the engine saves the same
// bytes as before, keeps its step index, loss scale and streak, and holds
// no version the Load allocated.
func FuzzCheckpointBitFlip(f *testing.F) {
	good := fuzzCheckpoint(f)
	for _, bit := range []int{
		8 * stepIndexOff,         // the header
		8*(record0Off+16) + 3,    // bucket 0's first master
		8*(record1Off+16+4) + 30, // bucket 1's second master's sign
		8*len(good) - 1,          // bucket 1's crc32
	} {
		f.Add(uint(bit))
	}
	f.Fuzz(func(t *testing.T, pos uint) {
		ckpt := bytes.Clone(good)
		bit := pos % uint(8*len(ckpt))
		ckpt[bit/8] ^= 1 << (bit % 8)

		dst := fuzzBuckets()
		v := &Verdict{cfg: Config{Scaler: optim.NewLossScaler()}, step: 2}
		v.cfg.Scaler.Scale, v.cfg.Scaler.GoodSteps = 512, 1
		var before, after bytes.Buffer
		if err := v.Save(&before, dst); err != nil {
			t.Fatal(err)
		}
		if err := v.Load(bytes.NewReader(ckpt), dst); err == nil {
			t.Fatalf("checkpoint with bit %d flipped loaded", bit)
		}
		if err := v.Save(&after, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("failed Load (bit %d flipped) changed the engine's state", bit)
		}
		if v.StepIndex() != 2 || v.cfg.Scaler.Scale != 512 || v.cfg.Scaler.GoodSteps != 1 {
			t.Fatalf("failed Load (bit %d flipped) left step %d, scale %v, streak %d", bit, v.StepIndex(), v.cfg.Scaler.Scale, v.cfg.Scaler.GoodSteps)
		}
		for _, bk := range dst {
			if st := bk.store.Acquire(bk.idx); st.prev != nil {
				t.Fatalf("failed Load (bit %d flipped) left bucket %d a staged version", bit, bk.idx)
			}
			bk.store.Release(bk.idx, ReleaseClean)
		}
	})
}

// FuzzMLPStoreOps drives the flash store's state machine — window,
// cache, flash, prefetch — with a random sequence of holds, against a
// DRAMStore fed the same operations. The input picks the window (2–4),
// the cache (0–6), 1 or 2 paths and up to 8 small buckets; each op byte
// picks a bucket and what the hold does, within the BucketStore
// contract (one hold at a time, the current version changed only under
// ReleaseFlush or ReleaseStep):
//
//	0: read only (ReleaseClean)
//	1: a speculative step into the other version (ReleaseStep)
//	2: a clip, re-stepping from the other version (ReleaseStep)
//	3: a skip, flipping back to the other version (ReleaseFlush)
//	4: a checkpoint Load's staging into the other version (ReleaseClean)
//
// Every acquired state must equal the reference bit for bit, both
// versions, and the residency invariants hold after every acquire and
// every release.
func FuzzMLPStoreOps(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(7), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(1), uint8(2), uint8(1), uint8(5), []byte{8, 17, 26, 3, 12, 21, 30, 7, 16, 25, 34, 1, 10, 19, 28})
	f.Add(uint8(2), uint8(6), uint8(1), uint8(3), []byte{0x00, 0x09, 0x12, 0x1b, 0x24, 0x08, 0x11, 0x1a, 0x23, 0x04})
	cfg := optim.DefaultConfig()
	f.Fuzz(func(t *testing.T, window, cache, paths, buckets uint8, ops []byte) {
		store, err := NewMLPStore(MLPStoreConfig{
			Dir:             t.TempDir(),
			Paths:           hw.NodeIOPaths(1 + int(paths%2)),
			ResidentBuckets: 2 + int(window%3),
			CacheBuckets:    int(cache % 7),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		ref := NewDRAMStore()
		nb := 1 + int(buckets%8)
		for i := 0; i < nb; i++ {
			master := make([]float32, 2+i)
			for j := range master {
				master[j] = float32(i+1) - float32(j)/8
			}
			store.Seed(i, master)
			ref.Seed(i, master)
		}
		grad := make([]float32, 2+nb)
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for k, b := range ops {
			idx := int(b) % nb
			got, want := store.Acquire(idx), ref.Acquire(idx)
			checkResidency(t, store, idx)
			if !bytes.Equal(versions(got), versions(want)) {
				t.Fatalf("op %d: bucket %d differs from the DRAM reference", k, idx)
			}
			mode := ReleaseClean
			for _, st := range []*BucketState{got, want} {
				g := grad[:len(st.Shard.Master)]
				for j := range g {
					g[j] = 0.01 * float32((j+k)%7-3)
				}
				switch (b >> 3) % 5 {
				case 1:
					st.Shard.StepFrom(ahead(st), cfg, g, 1)
					mode = ReleaseStep
				case 2:
					if st.prev != nil {
						st.Shard.StepFrom(st.prev, cfg, g, 1)
						mode = ReleaseStep
					}
				case 3:
					if st.prev != nil {
						st.flip()
						mode = ReleaseFlush
					}
				case 4:
					o := st.other()
					for j := range o.Master {
						o.Master[j] = st.Shard.Master[j] + g[j]
					}
					o.State.Step = st.Shard.State.Step + k
				}
			}
			store.Release(idx, mode)
			ref.Release(idx, mode)
			checkResidency(t, store, -1)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
