package stv

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"superoffload/internal/hw"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/tensor"
)

// TestMLPStoreMovesOneSlot: every fetch reads, and every modified
// eviction writes, one version of a bucket — its Adam step and fp32
// master/m/v, 8 + 12n bytes — through committed speculative steps and a
// skip rollback alike. A record's two slots hold the two versions; the
// rollback point is never read back from flash: it stays in the record's
// state in DRAM, and the skip finds it there.
func TestMLPStoreMovesOneSlot(t *testing.T) {
	const n = 1000
	store, err := NewMLPStore(MLPStoreConfig{Dir: t.TempDir(), Paths: hw.NodeIOPaths(1), ResidentBuckets: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var bks []*Bucket
	for i := 0; i < 4; i++ {
		w := tensor.New(n)
		for j := range w.Data {
			w.Data[j] = float32(i) + float32(j)/n
		}
		bks = append(bks, NewBucket(nn.Params{{Name: "p", W: w, G: tensor.New(n)}}, store, i))
	}
	cfg := optim.DefaultConfig()
	last := store.Telemetry().StoreTelemetry
	slotOnly := func(what string) {
		t.Helper()
		tel := store.Telemetry().StoreTelemetry
		d := tel.Sub(last)
		last = tel
		if d.BytesRead != int64(d.Reads)*(8+12*n) || d.BytesWritten != int64(d.Writes)*(8+12*n) {
			t.Fatalf("%s: %d reads of %d bytes, %d writes of %d bytes; want %d bytes each",
				what, d.Reads, d.BytesRead, d.Writes, d.BytesWritten, 8+12*n)
		}
	}
	speculate := func() {
		for _, bk := range bks {
			for j := range bk.grad {
				bk.grad[j] = 0.01 * float32(j%7-3)
			}
			bk.SpeculativeStep(cfg, 1)
			slotOnly("speculative step")
		}
	}
	for step := 0; step < 3; step++ {
		speculate()
		for _, bk := range bks {
			bk.Apply(Resolution{Action: Commit})
		}
	}
	var before []float32
	for _, bk := range bks {
		before = bk.AppendMaster(before)
		slotOnly("read")
	}
	speculate()
	// Each evicted record holds both versions on flash: the current one
	// in its current slot, the rollback point in the other.
	store.mu.Lock()
	checked := 0
	for idx, rec := range store.recs {
		if st := rec.st; rec.tier == onFlash {
			checked++
			if rec.pending != nil {
				<-rec.pending.Done
			}
			file, err := os.ReadFile(store.lanes[rec.path].Path())
			if err != nil {
				t.Fatal(err)
			}
			slot := func(i int) []byte { return file[rec.off+int64(i)*rec.bytes:][:rec.bytes] }
			if !bytes.Equal(slot(st.slot), encodeSlot(make([]byte, rec.bytes), st.Shard)) ||
				!bytes.Equal(slot(1-st.slot), encodeSlot(make([]byte, rec.bytes), st.prev)) {
				t.Errorf("bucket %d: the record's slots do not hold its two versions", idx)
			}
		}
	}
	store.mu.Unlock()
	if checked == 0 {
		t.Fatal("no record was on flash to check")
	}
	var after []float32
	for _, bk := range bks {
		bk.Apply(Resolution{Action: Skip})
		slotOnly("skip")
		after = bk.AppendMaster(after)
	}
	if !slices.Equal(before, after) {
		t.Fatal("skip rollback through the flash store did not restore the previous version")
	}
	if tel := store.Telemetry(); tel.Reads == 0 || tel.Writes == 0 {
		t.Fatalf("state never streamed through the file: %+v", tel.StoreTelemetry)
	}
}
