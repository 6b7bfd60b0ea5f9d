package main

import (
	"errors"
	"strings"
	"testing"
)

// goodFlags is a baseline combination every rule accepts.
func goodFlags() trainFlags {
	return trainFlags{
		steps: 10, layers: 4, hidden: 64, heads: 4, vocab: 128,
		batch: 4, seq: 16, ranks: 2, seqRanks: 2, pipeRank: 2,
		resident: 2, actResident: 2, ioPaths: 1,
		mode: "stv", offload: "dram",
	}
}

// TestValidateAcceptsGoodFlags pins the baseline so the rejection cases
// below fail for the reason they claim, not a stale baseline.
func TestValidateAcceptsGoodFlags(t *testing.T) {
	if err := goodFlags().validate(); err != nil {
		t.Fatalf("baseline flags rejected: %v", err)
	}
}

// TestValidateRejections drives every validation rule through a bad
// value and checks the failure is a usage error naming the offending
// flag — never a panic or a deep engine fault.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*trainFlags)
		wantMsg string
	}{
		{"zero steps", func(f *trainFlags) { f.steps = 0 }, "-steps"},
		{"tiny model", func(f *trainFlags) { f.hidden = 4 }, "model too small"},
		{"zero batch", func(f *trainFlags) { f.batch = 0 }, "-batch"},
		{"bad mode", func(f *trainFlags) { f.mode = "fast" }, "-mode"},
		{"bad offload", func(f *trainFlags) { f.offload = "tape" }, "-offload"},
		{"bad act offload", func(f *trainFlags) { f.actOffload = "tape" }, "-act-offload"},
		{"act window below store floor", func(f *trainFlags) { f.actResident = 1 }, "-act-resident-layers must be >= 2"},
		{"zero act window", func(f *trainFlags) { f.actResident = 0 }, "-act-resident-layers must be >= 2"},
		{"negative act window", func(f *trainFlags) { f.actResident = -3 }, "-act-resident-layers must be >= 2"},
		{"bad placement", func(f *trainFlags) { f.placement = "magic" }, "-placement"},
		{"negative gpu buckets", func(f *trainFlags) { f.gpuBuckets = -1 }, "-gpu-buckets"},
		{"gpu buckets without auto", func(f *trainFlags) { f.gpuBuckets = 2; f.placement = "cpu" }, "-gpu-buckets requires -placement auto"},
		{"resident window below store floor", func(f *trainFlags) { f.resident = 1 }, "-resident-buckets must be >= 2"},
		{"zero resident window", func(f *trainFlags) { f.resident = 0 }, "-resident-buckets must be >= 2"},
		{"negative bucket elems", func(f *trainFlags) { f.bucketElems = -1 }, "-bucket-elems"},
		{"zero io paths", func(f *trainFlags) { f.ioPaths = 0 }, "-io-paths must be >= 1"},
		{"negative dram cache", func(f *trainFlags) { f.dramCache = -1 }, "-dram-cache-buckets must be >= 0"},
		{"io paths without nvme", func(f *trainFlags) { f.ioPaths = 2 }, "require -offload nvme"},
		{"dram cache without nvme", func(f *trainFlags) { f.dramCache = 4 }, "require -offload nvme"},
		{"zero ranks", func(f *trainFlags) { f.ranks = 0 }, "-ranks"},
		{"zero seq ranks", func(f *trainFlags) { f.seqRanks = 0 }, "-seq-ranks"},
		{"zero pipe ranks", func(f *trainFlags) { f.pipeRank = 0 }, "-pipe-ranks must be >= 1"},
		{"negative pipe ranks", func(f *trainFlags) { f.pipeRank = -2 }, "-pipe-ranks must be >= 1"},
		{"more stages than layers", func(f *trainFlags) { f.pipeRank = 5 }, "fewer than -pipe-ranks"},
		{"negative heads", func(f *trainFlags) { f.heads = -1 }, "-heads"},
		{"hidden not divisible by heads", func(f *trainFlags) { f.heads = 3; f.hidden = 64 }, "not divisible by 3 heads"},
		{"heads not divisible by seq ranks", func(f *trainFlags) { f.heads = 4; f.seqRanks = 3; f.seq = 15 }, "not divisible by -seq-ranks"},
		{"batch not divisible by ranks", func(f *trainFlags) { f.batch = 3 }, "-batch 3 not divisible by -ranks 2"},
		{"seq not divisible by seq ranks", func(f *trainFlags) { f.seq = 15 }, "-seq 15 not divisible by -seq-ranks 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := goodFlags()
			c.mutate(&f)
			err := f.validate()
			if err == nil {
				t.Fatalf("accepted %+v", f)
			}
			var ue usageErr
			if !errors.As(err, &ue) {
				t.Fatalf("error is %T, want usageErr (a usage message, not a runtime fault): %v", err, err)
			}
			if !strings.Contains(err.Error(), c.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, c.wantMsg)
			}
		})
	}
}

// TestValidateHeadDefaulting: the divisibility checks must see the head
// count the engine derives when -heads is 0 (hidden/64, floor 1).
func TestValidateHeadDefaulting(t *testing.T) {
	f := goodFlags()
	f.heads = 0
	f.hidden = 128 // derives 2 heads — divisible by seqRanks 2
	if err := f.validate(); err != nil {
		t.Fatalf("derived heads rejected: %v", err)
	}
	f.seqRanks = 4 // 2 derived heads cannot shard 4 ways
	f.seq = 16
	if err := f.validate(); err == nil {
		t.Fatal("derived head count not checked against -seq-ranks")
	}
}
