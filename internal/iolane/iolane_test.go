package iolane

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
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
// Err and Close, and later ops keep draining: the read waits on the
// failed write because it overlaps it.
func TestLaneLatchesFirstError(t *testing.T) {
	l, err := Open(t.TempDir(), "lane-*.bin", nil, func(f File) File { return failWrites{f} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Issue(&Op{Buf: []byte("x"), Write: true}, 0, 0)
	r := &Op{Buf: make([]byte, 1)}
	l.Issue(r, 0, 0)
	<-r.Done
	if !errors.Is(l.Err(), errInjected) {
		t.Fatalf("Err() = %v, want the injected failure", l.Err())
	}
	if err := l.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close() = %v, want the injected failure", err)
	}
}

// gateFile holds the worker inside its first op until the test opens
// the gate, so every op issued meanwhile is queued when the worker next
// chooses, and logs the ops in the order the worker ran them.
type gateFile struct {
	File
	held chan struct{} // closed once the worker is inside its first op
	gate chan struct{} // the first op returns once the test closes it
	mu   sync.Mutex
	ran  []string
}

func (g *gateFile) enter(kind string, off int64) {
	g.mu.Lock()
	g.ran = append(g.ran, fmt.Sprintf("%s@%d", kind, off))
	first := len(g.ran) == 1
	g.mu.Unlock()
	if first {
		close(g.held)
		<-g.gate
	}
}

func (g *gateFile) ReadAt(p []byte, off int64) (int, error) {
	g.enter("r", off)
	return g.File.ReadAt(p, off)
}

func (g *gateFile) WriteAt(p []byte, off int64) (int, error) {
	g.enter("w", off)
	return g.File.WriteAt(p, off)
}

func (g *gateFile) order() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return strings.Join(g.ran, " ")
}

// plugged opens a lane over a gateFile and parks its worker inside a
// write at offset 1000, so the ops the test issues next all queue.
func plugged(t *testing.T) (*Lane, *gateFile) {
	t.Helper()
	g := &gateFile{held: make(chan struct{}), gate: make(chan struct{})}
	l, err := Open(t.TempDir(), "lane-*.bin", nil, func(f File) File { g.File = f; return g }, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Issue(&Op{Off: 1000, Buf: []byte("plug"), Write: true}, 0, 0)
	<-g.held
	return l, g
}

func write(off int64, s string) *Op { return &Op{Off: off, Buf: []byte(s), Write: true} }
func read(off int64, n int) *Op     { return &Op{Off: off, Buf: make([]byte, n)} }

// issueAll issues ops in order, opens the gate and waits for all of them.
func issueAll(t *testing.T, l *Lane, g *gateFile, ops ...*Op) {
	t.Helper()
	for _, op := range ops {
		l.Issue(op, 0, 0)
	}
	close(g.gate)
	for _, op := range ops {
		<-op.Done
		if op.Err != nil {
			t.Fatal(op.Err)
		}
	}
}

// TestLaneReadOvertakesQueuedWrite: a read of a region no queued write
// touches runs before the writes queued ahead of it.
func TestLaneReadOvertakesQueuedWrite(t *testing.T) {
	l, g := plugged(t)
	defer l.Close()
	issueAll(t, l, g, write(0, "aaaa"), write(8, "bbbb"), read(100, 4))
	if got, want := g.order(), "w@1000 r@100 w@0 w@8"; got != want {
		t.Fatalf("ran %q, want %q", got, want)
	}
}

// TestLaneReadSeesOverlappingQueuedWrite: a read that overlaps a write
// queued ahead of it, by one byte or wholly, waits for that write and
// returns the written bytes, while a read of another region still goes
// first.
func TestLaneReadSeesOverlappingQueuedWrite(t *testing.T) {
	l, g := plugged(t)
	defer l.Close()
	tail, whole, other := read(6, 4), read(0, 9), read(100, 4)
	issueAll(t, l, g, write(0, "new-bytes"), tail, whole, other)
	if got, want := g.order(), "w@1000 r@100 w@0 r@6 r@0"; got != want {
		t.Fatalf("ran %q, want %q", got, want)
	}
	if string(tail.Buf[:3]) != "tes" || string(whole.Buf) != "new-bytes" {
		t.Fatalf("reads behind the write got %q / %q, want the written bytes", tail.Buf, whole.Buf)
	}
}

// TestLaneWritesRunInIssueOrder: writes keep issue order among
// themselves, overlapping or not, so the last write of a region wins; a
// read runs as soon as the writes of its region issued before it have,
// and a write issued after a read of its region does not overtake it.
func TestLaneWritesRunInIssueOrder(t *testing.T) {
	l, g := plugged(t)
	defer l.Close()
	before := read(0, 4)
	after := read(0, 4)
	issueAll(t, l, g, write(0, "one!"), write(20, "two!"), before, write(0, "3333"), write(40, "four"), after)
	if got, want := g.order(), "w@1000 w@0 r@0 w@20 w@0 r@0 w@40"; got != want {
		t.Fatalf("ran %q, want %q", got, want)
	}
	if string(before.Buf) != "one!" || string(after.Buf) != "3333" {
		t.Fatalf("reads got %q / %q, want \"one!\" / \"3333\"", before.Buf, after.Buf)
	}
}

// TestLaneClockStampsIssueOrder: DoneAt and Clock are the FIFO stamps —
// max(clock, now)+dur in issue order — whatever order the worker serves
// the ops in.
func TestLaneClockStampsIssueOrder(t *testing.T) {
	l, g := plugged(t)
	defer l.Close()
	ops := []*Op{write(0, "aaaa"), write(8, "bbbb"), read(100, 4), read(0, 4), write(200, "cccc")}
	nows := []float64{1, 1.5, 0.5, 4, 2}
	durs := []float64{0.5, 1, 0.25, 0.5, 2}
	var clock float64
	for i, op := range ops {
		l.Issue(op, nows[i], durs[i])
		clock = math.Max(clock, nows[i]) + durs[i]
		if op.DoneAt != clock || l.Clock() != clock {
			t.Fatalf("op %d: DoneAt %v Clock %v, want %v", i, op.DoneAt, l.Clock(), clock)
		}
	}
	close(g.gate)
	for _, op := range ops {
		<-op.Done
	}
	if got, want := g.order(), "w@1000 r@100 w@0 r@0 w@8 w@200"; got != want {
		t.Fatalf("ran %q, want %q", got, want)
	}
}

// TestLaneCloseDrainsBothClasses: Close runs every queued read and
// write before it returns, and the worker exits with it.
func TestLaneCloseDrainsBothClasses(t *testing.T) {
	before := runtime.NumGoroutine()
	l, g := plugged(t)
	ops := []*Op{write(0, "aaaa"), read(100, 4), write(8, "bbbb"), read(0, 4)}
	for _, op := range ops {
		l.Issue(op, 0, 0)
	}
	close(g.gate)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		select {
		case <-op.Done:
		default:
			t.Fatalf("op %d still pending after Close", i)
		}
	}
	if got := strings.Count(g.order(), "@"); got != len(ops)+1 {
		t.Fatalf("Close returned after %d ops ran (%s), want %d", got, g.order(), len(ops)+1)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before the lane, %d after Close", before, runtime.NumGoroutine())
		}
	}
}

// TestLaneQueueBounded: with the worker held, the queue takes queueDepth
// ops and the next Issue blocks until the worker frees a place.
func TestLaneQueueBounded(t *testing.T) {
	l, g := plugged(t)
	defer l.Close()
	for i := 0; i < queueDepth; i++ {
		l.Issue(write(int64(8*i), "x"), 0, 0)
	}
	last := read(0, 1)
	issued := make(chan struct{})
	go func() {
		l.Issue(last, 0, 0)
		close(issued)
	}()
	select {
	case <-issued:
		t.Fatalf("Issue returned with %d ops already queued", queueDepth)
	case <-time.After(20 * time.Millisecond):
	}
	close(g.gate)
	<-issued
	<-last.Done
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

// codecPath is one implementation behind PutFloat32s / Float32s.
type codecPath struct {
	name string
	put  func([]byte, []float32) []byte
	get  func([]float32, []byte) []byte
}

// codecPaths are the two implementations, by name: the view is what
// little-endian hosts run, the loop what big-endian hosts run and the
// reference.
var codecPaths = []codecPath{
	{"view", putFloat32sView, float32sView},
	{"loop", putFloat32sLoop, float32sLoop},
}

// refEncode writes each value's bit pattern low byte first, a byte at a
// time: the layout the slot codec and the activation spill file use,
// spelled out without the codec.
func refEncode(xs []float32) []byte {
	var out []byte
	for _, v := range xs {
		bits := math.Float32bits(v)
		out = append(out, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	return out
}

// TestFloat32sLittleEndianBitExact: on both paths, PutFloat32s writes
// each value's bit pattern low byte first, chains through its return
// value, and Float32s restores the exact bits, NaN payloads included.
// The exported pair must be one of the two.
func TestFloat32sLittleEndianBitExact(t *testing.T) {
	a := []float32{1.5, float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc0dead)}
	b := []float32{float32(math.Inf(-1)), math.SmallestNonzeroFloat32}
	all := append(append([]float32{}, a...), b...)
	want := refEncode(all)
	paths := append(codecPaths, codecPath{"exported", PutFloat32s, Float32s})
	for _, p := range paths {
		buf := make([]byte, len(want)+3)
		if rest := p.put(p.put(buf, a), b); len(rest) != 3 || !bytes.Equal(buf[:len(want)], want) {
			t.Fatalf("%s: encoded % x (rest %d), want % x (rest 3)", p.name, buf[:len(want)], len(rest), want)
		}
		gotA, gotB := make([]float32, len(a)), make([]float32, len(b))
		if rest := p.get(gotB, p.get(gotA, buf)); len(rest) != 3 {
			t.Fatalf("%s: decode left %d bytes, want 3", p.name, len(rest))
		}
		for i, v := range append(gotA, gotB...) {
			if math.Float32bits(v) != math.Float32bits(all[i]) {
				t.Errorf("%s: value %d: %#x round-tripped to %#x", p.name, i, math.Float32bits(all[i]), math.Float32bits(v))
			}
		}
	}
}

// TestCodecPathsMatchReference holds both paths to refEncode byte for
// byte and to the exact bits on decode, over the lengths the view's copy
// could get wrong (empty, one element, odd, past 64 Ki elements), sub-
// slices starting at odd element and byte offsets, and the patterns a
// float conversion would disturb: quiet and signalling NaN payloads,
// signed zeros, subnormals and infinities.
func TestCodecPathsMatchReference(t *testing.T) {
	specials := []uint32{
		0x7fc00000, 0x7fc0dead, 0xffc00001, // quiet NaNs with payloads
		0x7f800001, 0x7fa00000, 0xff800abc, // signalling NaNs
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x007fffff, 0x80400000, // subnormals
		0x7f800000, 0xff800000, 0x3f800000, 0xc2f6e979,
	}
	for _, n := range []int{0, 1, 7, 65539} {
		for _, lead := range []int{0, 3} { // element offset of the sub-slice
			backing := make([]float32, lead+n+1)
			for i := range backing {
				backing[i] = math.Float32frombits(specials[i%len(specials)] ^ uint32(i>>4)<<13)
			}
			xs := backing[lead : lead+n]
			want := refEncode(xs)
			for _, p := range codecPaths {
				raw := make([]byte, len(want)+5)
				dst := raw[1 : 1+len(want)+2] // odd byte offset, two spare bytes
				if rest := p.put(dst, xs); len(rest) != 2 || !bytes.Equal(dst[:len(want)], want) {
					t.Fatalf("%s n=%d lead=%d: encoding differs from the reference (rest %d)", p.name, n, lead, len(rest))
				}
				if raw[0] != 0 || raw[len(raw)-1] != 0 {
					t.Fatalf("%s n=%d lead=%d: wrote outside dst", p.name, n, lead)
				}
				got := make([]float32, n+2)
				if rest := p.get(got[1:1+n], dst); len(rest) != 2 {
					t.Fatalf("%s n=%d lead=%d: decode left %d bytes, want 2", p.name, n, lead, len(rest))
				}
				if got[0] != 0 || got[n+1] != 0 {
					t.Fatalf("%s n=%d lead=%d: decoded outside xs", p.name, n, lead)
				}
				for i, v := range got[1 : 1+n] {
					if math.Float32bits(v) != math.Float32bits(xs[i]) {
						t.Fatalf("%s n=%d lead=%d: element %d %#x decoded as %#x", p.name, n, lead, i, math.Float32bits(xs[i]), math.Float32bits(v))
					}
				}
			}
		}
	}
}
