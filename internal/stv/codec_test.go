package stv

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"superoffload/internal/optim"
)

// refEncodeSlot is encodeSlot written as a plain per-element loop: the
// slot layout spelled out independently of the iolane codec, which
// FuzzRecordRoundTrip and TestEncodeSlotMatchesReference hold to it byte
// for byte.
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

// TestEncodeSlotMatchesReference: on this host's codec path (the byte
// view on little-endian hosts, the loop elsewhere; iolane's tests pin
// each path by name), a slot is refEncodeSlot's bytes and decodes to the
// same bits, at lengths 0, 1, 7 and 65 539 and over quiet and
// signalling NaN payloads, signed zeros and subnormals.
func TestEncodeSlotMatchesReference(t *testing.T) {
	specials := []uint32{
		0x7fc0dead, 0x7f800001, 0xffa00bad, 0x00000000, 0x80000000,
		0x00000001, 0x807fffff, 0x7f800000, 0x3f800000, 0xc2f6e979,
	}
	for _, n := range []int{0, 1, 7, 65539} {
		master := make([]float32, n)
		for i := range master {
			master[i] = math.Float32frombits(specials[i%len(specials)])
		}
		sh := optim.NewMixedShard(master)
		sh.State.Step = n + 3
		for i := range master {
			sh.State.M[i] = math.Float32frombits(specials[(i+3)%len(specials)])
			sh.State.V[i] = math.Float32frombits(specials[(i+7)%len(specials)] ^ uint32(i)<<9)
		}
		got := encodeSlot(make([]byte, slotBytes(n)), sh)
		if want := refEncodeSlot(make([]byte, slotBytes(n)), sh); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: slot bytes differ from the reference encoder's", n)
		}
		back := optim.NewMixedShard(make([]float32, n))
		if err := decodeSlot(back, n, got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if back.State.Step != sh.State.Step {
			t.Fatalf("n=%d: step %d, want %d", n, back.State.Step, sh.State.Step)
		}
		sameF32(t, "master", sh.Master, back.Master)
		sameF32(t, "m", sh.State.M, back.State.M)
		sameF32(t, "v", sh.State.V, back.State.V)
	}
}
