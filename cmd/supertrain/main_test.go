package main

import (
	"errors"
	"strings"
	"testing"

	"superoffload"
)

// goodFlags is a baseline combination every rule accepts.
func goodFlags() trainFlags {
	return trainFlags{
		steps: 10, layers: 4, hidden: 64, heads: 4, vocab: 128,
		batch: 4, seq: 16, ranks: 2, seqRanks: 2, pipeRank: 2,
		resident: 2, actResident: 2, ioPaths: 1, clip: 4, seed: 42,
		mode: "stv", offload: "dram",
	}
}

// check takes f as far as run does before training: validate, the
// facade's constructors, and the first Step, whose batch the facade
// checks before any of it trains. It returns the first rejection.
func check(f trainFlags) error {
	_, eng, err := f.start(nil)
	if err != nil {
		return err
	}
	defer eng.Close()
	_, err = eng.Step(superoffload.NewCorpus(f.vocab, f.seed+1).NextBatch(f.batch, f.seq))
	return flagError(err)
}

// TestValidateAcceptsGoodFlags pins the baseline so the rejection cases
// below fail for the reason they claim, not a stale baseline.
func TestValidateAcceptsGoodFlags(t *testing.T) {
	if err := check(goodFlags()); err != nil {
		t.Fatalf("baseline flags rejected: %v", err)
	}
}

// TestValidateRejections drives every rule a flag can break through a
// bad value — the flag-only rules in validate and the facade's, which
// come back as a *superoffload.ConfigError — and checks the failure is a
// usage error that opens with the offending flag, never a panic or a
// runtime fault.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*trainFlags)
		flag   string
	}{
		{"zero steps", func(f *trainFlags) { f.steps = 0 }, "-steps"},
		{"tiny model", func(f *trainFlags) { f.hidden = 4 }, "-hidden"},
		{"zero batch", func(f *trainFlags) { f.batch = 0 }, "-batch"},
		{"bad mode", func(f *trainFlags) { f.mode = "fast" }, "-mode"},
		{"bad offload", func(f *trainFlags) { f.offload = "tape" }, "-offload"},
		{"bad act offload", func(f *trainFlags) { f.actOffload = "tape" }, "-act-offload"},
		{"act window below store floor", func(f *trainFlags) { f.actResident = 1 }, "-act-resident-layers"},
		{"zero act window", func(f *trainFlags) { f.actResident = 0 }, "-act-resident-layers"},
		{"negative act window", func(f *trainFlags) { f.actResident = -3 }, "-act-resident-layers"},
		{"bad placement", func(f *trainFlags) { f.placement = "magic" }, "-placement"},
		{"negative gpu buckets", func(f *trainFlags) { f.gpuBuckets = -1 }, "-gpu-buckets"},
		{"gpu buckets without auto", func(f *trainFlags) { f.gpuBuckets = 2; f.placement = "cpu" }, "-gpu-buckets"},
		{"resident window below store floor", func(f *trainFlags) { f.resident = 1 }, "-resident-buckets"},
		{"zero resident window", func(f *trainFlags) { f.resident = 0 }, "-resident-buckets"},
		{"negative bucket elems", func(f *trainFlags) { f.bucketElems = -1 }, "-bucket-elems"},
		{"zero io paths", func(f *trainFlags) { f.ioPaths = 0 }, "-io-paths"},
		{"negative dram cache", func(f *trainFlags) { f.dramCache = -1 }, "-dram-cache-buckets"},
		{"io paths without nvme", func(f *trainFlags) { f.ioPaths = 2 }, "-io-paths"},
		{"dram cache without nvme", func(f *trainFlags) { f.dramCache = 4 }, "-dram-cache-buckets"},
		{"zero ranks", func(f *trainFlags) { f.ranks = 0 }, "-ranks"},
		{"zero seq ranks", func(f *trainFlags) { f.seqRanks = 0 }, "-seq-ranks"},
		{"zero pipe ranks", func(f *trainFlags) { f.pipeRank = 0 }, "-pipe-ranks"},
		{"negative pipe ranks", func(f *trainFlags) { f.pipeRank = -2 }, "-pipe-ranks"},
		{"more stages than layers", func(f *trainFlags) { f.pipeRank = 5 }, "-pipe-ranks"},
		{"negative heads", func(f *trainFlags) { f.heads = -1 }, "-heads"},
		{"hidden not divisible by heads", func(f *trainFlags) { f.heads = 3; f.hidden = 64 }, "-heads"},
		{"heads not divisible by seq ranks", func(f *trainFlags) { f.heads = 4; f.seqRanks = 3; f.seq = 15 }, "-seq-ranks"},
		{"batch not divisible by ranks", func(f *trainFlags) { f.batch = 3 }, "-batch"},
		{"seq not divisible by seq ranks", func(f *trainFlags) { f.seq = 15 }, "-seq"},
		{"negative clip", func(f *trainFlags) { f.clip = -1 }, "-clip"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := goodFlags()
			c.mutate(&f)
			err := check(f)
			if err == nil {
				t.Fatalf("accepted %+v", f)
			}
			var ue usageErr
			if !errors.As(err, &ue) {
				t.Fatalf("error is %T, want usageErr (a usage message, not a runtime fault): %v", err, err)
			}
			if !strings.HasPrefix(ue.msg, c.flag+" ") {
				t.Fatalf("error %q does not open with %s", err, c.flag)
			}
		})
	}
}

// TestValidateHeadDefaulting: the facade's divisibility checks see the
// head count it derives when -heads is 0 (hidden/64, floor 1).
func TestValidateHeadDefaulting(t *testing.T) {
	f := goodFlags()
	f.heads = 0
	f.hidden = 128 // derives 2 heads — divisible by seqRanks 2
	if err := check(f); err != nil {
		t.Fatalf("derived heads rejected: %v", err)
	}
	f.seqRanks = 4 // 2 derived heads cannot shard 4 ways
	f.seq = 16
	var ue usageErr
	if err := check(f); !errors.As(err, &ue) || !strings.HasPrefix(ue.msg, "-seq-ranks ") {
		t.Fatalf("derived head count not checked against -seq-ranks: %v", err)
	}
}
