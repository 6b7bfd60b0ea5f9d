package data

import "testing"

func TestDeterministic(t *testing.T) {
	a := NewCorpus(64, 5)
	b := NewCorpus(64, 5)
	for i := 0; i < 500; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestTokensInRange(t *testing.T) {
	c := NewCorpus(32, 9)
	for i := 0; i < 2000; i++ {
		tok := c.Next()
		if tok < 0 || tok >= 32 {
			t.Fatalf("token %d out of range", tok)
		}
	}
}

func TestBatchLayout(t *testing.T) {
	c := NewCorpus(64, 3)
	b := c.NextBatch(4, 16)
	if len(b.Tokens) != 64 || len(b.Targets) != 64 {
		t.Fatalf("batch sizes %d/%d", len(b.Tokens), len(b.Targets))
	}
	// Within a row, targets shift tokens by one.
	for r := 0; r < 4; r++ {
		for i := 0; i < 15; i++ {
			if b.Targets[r*16+i] != b.Tokens[r*16+i+1] {
				t.Fatalf("row %d pos %d: target %d != next token %d",
					r, i, b.Targets[r*16+i], b.Tokens[r*16+i+1])
			}
		}
	}
}

func TestBatchCheck(t *testing.T) {
	c := NewCorpus(64, 3)
	b := c.NextBatch(2, 8)
	b.Tokens[0], b.Targets[15] = 0, 63 // both ends of the vocabulary
	if err := b.Check(64, 8); err != nil {
		t.Fatalf("good batch rejected: %v", err)
	}
	bad := map[string]func(b *Batch){
		"no rows":           func(b *Batch) { *b = Batch{Seq: 8} },
		"short targets":     func(b *Batch) { b.Targets = b.Targets[1:] },
		"sequence too long": func(b *Batch) { b.Seq, b.BatchSize = 16, 1 },
		"negative token":    func(b *Batch) { b.Tokens[3] = -1 },
		"token past vocab":  func(b *Batch) { b.Tokens[3] = 64 },
		"target past vocab": func(b *Batch) { b.Targets[3] = 64 },
	}
	for what, mutate := range bad {
		m := b
		m.Tokens, m.Targets = append([]int(nil), b.Tokens...), append([]int(nil), b.Targets...)
		mutate(&m)
		if err := m.Check(64, 8); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestZipfMarginalSkewed(t *testing.T) {
	c := NewCorpus(128, 11)
	counts := make([]int, 128)
	for i := 0; i < 30000; i++ {
		counts[c.sampleZipf()]++
	}
	if counts[0] <= counts[64] {
		t.Errorf("zipf head (%d) not heavier than tail (%d)", counts[0], counts[64])
	}
}

func TestVocabValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for vocab < 2")
		}
	}()
	NewCorpus(1, 0)
}
