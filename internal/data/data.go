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

// ConfigError is superoffload.ConfigError, a rejected piece of caller
// input named by its path in the facade's types, declared here below
// every package that raises one.
type ConfigError struct {
	Field string
	Value any
	Want  string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("superoffload: %s %#v: want %s", e.Field, e.Value, e.Want)
}

// Check reports why a model of vocabulary vocab and maximum sequence
// maxSeq cannot train on b, as a *ConfigError naming the Batch field: no
// rows, token or target slices that are not BatchSize×Seq long, a
// sequence past maxSeq, or a token or target outside [0, vocab), named by
// its flat index. Engines call it in the caller's goroutine, so a bad
// batch is an error there rather than a panic deep in a forward pass.
func (b Batch) Check(vocab, maxSeq int) error {
	n := b.BatchSize * b.Seq
	switch {
	case b.BatchSize < 1:
		return &ConfigError{"Batch.BatchSize", b.BatchSize, ">= 1"}
	case b.Seq < 1 || b.Seq > maxSeq:
		return &ConfigError{"Batch.Seq", b.Seq, fmt.Sprintf("in [1, ModelConfig.MaxSeq = %d]", maxSeq)}
	case len(b.Tokens) != n:
		return &ConfigError{"Batch.Tokens", len(b.Tokens), fmt.Sprintf("BatchSize×Seq = %d ids (the value is the length)", n)}
	case len(b.Targets) != n:
		return &ConfigError{"Batch.Targets", len(b.Targets), fmt.Sprintf("BatchSize×Seq = %d ids (the value is the length)", n)}
	}
	for i, tok := range b.Tokens {
		if tok < 0 || tok >= vocab {
			return &ConfigError{"Batch.Tokens", tok, fmt.Sprintf("ids in [0, %d); the one at index %d is not", vocab, i)}
		}
		if tgt := b.Targets[i]; tgt < 0 || tgt >= vocab {
			return &ConfigError{"Batch.Targets", tgt, fmt.Sprintf("ids in [0, %d); the one at index %d is not", vocab, i)}
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
