package stv

import (
	"testing"

	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/tensor"
)

func tinyGPT(seed uint64) *nn.GPT {
	cfg := model.Config{Name: "t", Layers: 2, Hidden: 32, Heads: 2, Vocab: 64}
	return nn.NewGPT(cfg, 16, tensor.NewRNG(seed))
}

func TestBucketPartition(t *testing.T) {
	m := tinyGPT(1)
	buckets := partitionParams(m.Params(), 20000, NewDRAMStore())
	if len(buckets) < 2 {
		t.Fatalf("expected multiple buckets, got %d", len(buckets))
	}
	// Every parameter appears in exactly one bucket, in order, and the
	// flattened sizes add up.
	total := 0
	for _, bk := range buckets {
		total += bk.Size()
	}
	if total != m.NumParams() {
		t.Errorf("bucketed %d elems, model has %d", total, m.NumParams())
	}
}

func TestPartitionRespectsBudgetWhenPossible(t *testing.T) {
	m := tinyGPT(1)
	buckets := partitionParams(m.Params(), 50000, NewDRAMStore())
	for i, bk := range buckets {
		if len(bk.group) > 1 && bk.Size() > 50000 {
			t.Errorf("bucket %d exceeds budget with %d elems across %d tensors",
				i, bk.Size(), len(bk.group))
		}
	}
}

func TestModeStrings(t *testing.T) {
	if STE.String() != "STE" || STV.String() != "STV" {
		t.Error("mode strings")
	}
	if (Stats{ClipRolls: 2, SkipRolls: 3}).Rollbacks() != 5 {
		t.Error("rollback sum")
	}
}

// TestSpeculativeStepOnDirtyBucketPanics: a speculative step reads the
// version its predecessor's verdict may roll back to, so a step on a
// bucket whose verdict has not been applied panics rather than overwrite
// that rollback point; once the verdict is applied, the next step runs.
func TestSpeculativeStepOnDirtyBucketPanics(t *testing.T) {
	bk := fuzzBuckets()[0]
	cfg := optim.DefaultConfig()
	bk.SpeculativeStep(cfg, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("speculative step before the last verdict was applied did not panic")
			}
		}()
		bk.SpeculativeStep(cfg, 1)
	}()
	bk.Apply(Resolution{Action: Commit})
	bk.SpeculativeStep(cfg, 1)
}
