package iolane

import (
	"bytes"
	"errors"
	"math"
	"os"
	"testing"
)

// failWrites errors every write and passes reads through.
type failWrites struct{ File }

var errInjected = errors.New("injected write failure")

func (failWrites) WriteAt([]byte, int64) (int, error) { return 0, errInjected }

// TestLaneFIFOClockAndClose: a read issued behind a write of the same
// region sees the written bytes, the device clock serializes modeled
// durations behind the consumer clock, and Close removes the file.
func TestLaneFIFOClockAndClose(t *testing.T) {
	var hooked int
	l, err := Open(t.TempDir(), "lane-*.bin", nil, nil, func(*Op) { hooked++ })
	if err != nil {
		t.Fatal(err)
	}
	w := &Op{Off: 8, Buf: []byte("payload"), Write: true}
	l.Issue(w, 0, 0) // unmodeled: the clock stays put
	if w.DoneAt != 0 || l.Clock() != 0 {
		t.Fatalf("unmodeled op moved the clock: doneAt %v clock %v", w.DoneAt, l.Clock())
	}
	r := &Op{Off: 8, Buf: make([]byte, 7)}
	l.Issue(r, 2, 0.5) // consumer ahead of the device
	r2 := &Op{Off: 8, Buf: make([]byte, 7)}
	l.Issue(r2, 1, 0.25) // device ahead of the consumer
	if r.DoneAt != 2.5 || r2.DoneAt != 2.75 || l.Clock() != 2.75 {
		t.Fatalf("doneAt %v, %v clock %v; want 2.5, 2.75, 2.75", r.DoneAt, r2.DoneAt, l.Clock())
	}
	<-r2.Done
	if r.Err != nil || !bytes.Equal(r.Buf, w.Buf) || !bytes.Equal(r2.Buf, w.Buf) {
		t.Fatalf("reads behind the write got %q / %q (err %v)", r.Buf, r2.Buf, r.Err)
	}
	if hooked != 3 {
		t.Fatalf("after-hook ran %d times before the last op's Done, want 3", hooked)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(l.Path()); !os.IsNotExist(err) {
		t.Fatalf("backing file survived Close (err=%v)", err)
	}
}

// TestLaneLatchesFirstError: a failed op nobody waits on still reaches
// Err and Close, and later ops keep draining.
func TestLaneLatchesFirstError(t *testing.T) {
	l, err := Open(t.TempDir(), "lane-*.bin", nil, func(f File) File { return failWrites{f} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Issue(&Op{Buf: []byte("x"), Write: true}, 0, 0)
	r := &Op{Buf: make([]byte, 0)}
	l.Issue(r, 0, 0)
	<-r.Done
	if !errors.Is(l.Err(), errInjected) {
		t.Fatalf("Err() = %v, want the injected failure", l.Err())
	}
	if err := l.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close() = %v, want the injected failure", err)
	}
}

// TestVirtualLane: no file, no goroutine — ops complete at issue and
// only the clock moves.
func TestVirtualLane(t *testing.T) {
	l := Virtual()
	a, b := &Op{Write: true}, &Op{}
	l.Issue(a, 1, 2)
	l.Issue(b, 0, 1)
	<-a.Done
	<-b.Done
	if a.DoneAt != 3 || b.DoneAt != 4 || l.Path() != "" {
		t.Fatalf("doneAt %v, %v path %q; want 3, 4, \"\"", a.DoneAt, b.DoneAt, l.Path())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFloat32sLittleEndianBitExact: PutFloat32s writes each value's bit
// pattern low byte first (the byte-at-a-time loop the activation spill
// file was written with is the reference), chains through its return
// value, and Float32s restores the exact bits, NaN payloads included.
func TestFloat32sLittleEndianBitExact(t *testing.T) {
	a := []float32{1.5, float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc0dead)}
	b := []float32{float32(math.Inf(-1)), math.SmallestNonzeroFloat32}
	all := append(append([]float32{}, a...), b...)
	var want []byte
	for _, v := range all {
		bits := math.Float32bits(v)
		want = append(want, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	buf := make([]byte, len(want)+3)
	if rest := PutFloat32s(PutFloat32s(buf, a), b); len(rest) != 3 || !bytes.Equal(buf[:len(want)], want) {
		t.Fatalf("encoded % x (rest %d), want % x (rest 3)", buf[:len(want)], len(rest), want)
	}
	gotA, gotB := make([]float32, len(a)), make([]float32, len(b))
	if rest := Float32s(gotB, Float32s(gotA, buf)); len(rest) != 3 {
		t.Fatalf("decode left %d bytes, want 3", len(rest))
	}
	for i, v := range append(gotA, gotB...) {
		if math.Float32bits(v) != math.Float32bits(all[i]) {
			t.Errorf("value %d: %#x round-tripped to %#x", i, math.Float32bits(all[i]), math.Float32bits(v))
		}
	}
}
