// Package data generates the synthetic training corpus that substitutes
// for the paper's Pile subset (per the DESIGN.md substitution table): a
// deterministic first-order Markov token stream with Zipfian marginals.
// The distribution is learnable (a transformer's loss drops well below the
// unigram entropy), which is all the loss-curve experiments need, and it is
// exactly reproducible from a seed.
package data

import (
	"fmt"
	"math"

	"superoffload/internal/tensor"
)

// Corpus is a deterministic token stream generator.
type Corpus struct {
	Vocab int
	rng   *tensor.RNG
	// trans[t] is the preferred successor of token t; with probability
	// 1-noise the stream follows it, otherwise it samples Zipfian.
	trans []int
	noise float64
	// zipf alias table (cumulative distribution).
	cdf  []float64
	last int
}

// NewCorpus builds a corpus over the given vocabulary.
func NewCorpus(vocab int, seed uint64) *Corpus {
	if vocab < 2 {
		panic("data: vocab must be ≥ 2")
	}
	rng := tensor.NewRNG(seed)
	c := &Corpus{Vocab: vocab, rng: rng, noise: 0.15}
	// Random successor permutation (derangement-ish; self loops allowed,
	// harmless).
	c.trans = make([]int, vocab)
	perm := make([]int, vocab)
	for i := range perm {
		perm[i] = i
	}
	for i := vocab - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	copy(c.trans, perm)
	// Zipfian CDF with exponent 1.1.
	c.cdf = make([]float64, vocab)
	var z float64
	for i := 0; i < vocab; i++ {
		z += 1 / math.Pow(float64(i+1), 1.1)
		c.cdf[i] = z
	}
	for i := range c.cdf {
		c.cdf[i] /= z
	}
	c.last = rng.Intn(vocab)
	return c
}

// Next emits the next token.
func (c *Corpus) Next() int {
	var tok int
	if c.rng.Float64() < c.noise {
		tok = c.sampleZipf()
	} else {
		tok = c.trans[c.last]
	}
	c.last = tok
	return tok
}

func (c *Corpus) sampleZipf() int {
	u := c.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(c.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Batch is one (batch, seq) training example pair in the flattened layout
// internal/nn consumes: Targets[i] is the next token after Tokens[i].
type Batch struct {
	Tokens, Targets []int
	BatchSize, Seq  int
}

// Check reports why a model of vocabulary vocab and maximum sequence
// maxSeq cannot train on b: no rows, token or target slices that are not
// BatchSize×Seq long, a sequence past maxSeq, or a token or target
// outside [0, vocab), named by its flat index. Engines call it in the
// caller's goroutine, so a bad batch is an error there rather than a
// panic deep in a forward pass.
func (b Batch) Check(vocab, maxSeq int) error {
	if n := b.BatchSize * b.Seq; b.BatchSize < 1 || b.Seq < 1 || len(b.Tokens) != n || len(b.Targets) != n {
		return fmt.Errorf("batch of %d×%d carries %d tokens and %d targets",
			b.BatchSize, b.Seq, len(b.Tokens), len(b.Targets))
	}
	if b.Seq > maxSeq {
		return fmt.Errorf("sequence %d exceeds the model's max %d", b.Seq, maxSeq)
	}
	for i, tok := range b.Tokens {
		if tok < 0 || tok >= vocab {
			return fmt.Errorf("token %d at index %d is outside the vocabulary [0, %d)", tok, i, vocab)
		}
		if tgt := b.Targets[i]; tgt < 0 || tgt >= vocab {
			return fmt.Errorf("target %d at index %d is outside the vocabulary [0, %d)", tgt, i, vocab)
		}
	}
	return nil
}

// NextBatch draws batch rows of seq+1 tokens and splits them into
// input/target windows.
func (c *Corpus) NextBatch(batch, seq int) Batch {
	b := Batch{
		Tokens:    make([]int, batch*seq),
		Targets:   make([]int, batch*seq),
		BatchSize: batch,
		Seq:       seq,
	}
	for r := 0; r < batch; r++ {
		prev := c.Next()
		for t := 0; t < seq; t++ {
			cur := c.Next()
			b.Tokens[r*seq+t] = prev
			b.Targets[r*seq+t] = cur
			prev = cur
		}
	}
	return b
}

func (c *Corpus) String() string { return fmt.Sprintf("Corpus(V=%d)", c.Vocab) }
