// Package model describes GPT/LLaMA-style transformer workloads
// analytically: the Appendix A configuration table, parameter counts,
// per-iteration FLOPs, and the memory model (model states, optimizer
// states, activations with and without checkpointing) that every
// scheduling and capacity experiment consumes.
package model

import (
	"fmt"
	"sort"
)

// Config is one transformer workload.
type Config struct {
	Name   string
	Layers int
	Hidden int
	Heads  int
	Vocab  int
}

// DefaultVocab is the GPT-2 style vocabulary used throughout the
// evaluation.
const DefaultVocab = 50304

// New builds a config with heads = hidden/128 (the paper's models follow
// the standard 128-dim head convention).
func New(name string, layers, hidden int) Config {
	heads := hidden / 128
	if heads == 0 {
		heads = 1
	}
	return Config{Name: name, Layers: layers, Hidden: hidden, Heads: heads, Vocab: DefaultVocab}
}

// AppendixA reproduces the paper's Table 4 (model configurations used in
// the evaluation), extended with the 30B and 175B models referenced by
// Fig. 12 and Fig. 14.
//
//	# params            # layer       hidden
//	1, 2, 3 B           20, 40, 60    2048
//	4 B                 64            2304
//	5, 6, 8 B           44, 53, 72    3072
//	10, 11 B            50, 55        4096
//	12, 13 B            60, 65        4096
//	15 B                78            4096
//	20, 25, 50, 60 B    25, 30, 60, 75  8192
//	70, 80 B            87, 100       8192
//	150, 200 B          45, 60        16384
func AppendixA() []Config {
	return []Config{
		New("1B", 20, 2048),
		New("2B", 40, 2048),
		New("3B", 60, 2048),
		New("3.5B", 70, 2048), // DDP capacity point in Fig. 13
		New("4B", 64, 2304),
		New("5B", 44, 3072),
		New("6B", 53, 3072),
		New("8B", 72, 3072),
		New("10B", 50, 4096),
		New("11B", 55, 4096),
		New("12B", 60, 4096),
		New("13B", 65, 4096),
		New("15B", 78, 4096),
		New("20B", 25, 8192),
		New("25B", 30, 8192),
		New("30B", 37, 8192), // Fig. 12 long-sequence workload
		New("50B", 60, 8192),
		New("60B", 75, 8192),
		New("70B", 87, 8192),
		New("80B", 100, 8192),
		New("150B", 45, 16384),
		New("175B", 53, 16384), // Fig. 14 GPT-style pretrain
		New("200B", 60, 16384),
	}
}

// ByName returns the Appendix A config with the given label.
func ByName(name string) (Config, error) {
	for _, c := range AppendixA() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown config %q", name)
}

// Nearest returns the Appendix A config whose parameter count is closest
// to want.
func Nearest(want int64) Config {
	all := AppendixA()
	sort.Slice(all, func(i, j int) bool { return all[i].Params() < all[j].Params() })
	best := all[0]
	for _, c := range all {
		if abs64(c.Params()-want) < abs64(best.Params()-want) {
			best = c
		}
	}
	return best
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Params returns the total parameter count:
// per layer 12·h² (4h² attention + 8h² MLP) + 13h (biases + layernorms),
// token embedding V·h (tied with the LM head), final layernorm 2h.
func (c Config) Params() int64 {
	h := int64(c.Hidden)
	perLayer := 12*h*h + 13*h
	return int64(c.Layers)*perLayer + int64(c.Vocab)*h + 2*h
}

// Tiny returns a config small enough for real numeric training in tests
// and examples.
func Tiny() Config {
	return Config{Name: "tiny", Layers: 2, Hidden: 64, Heads: 4, Vocab: 256}
}

// ---- FLOPs ----

// FwdFLOPsPerIter returns forward-pass FLOPs for one iteration of
// batch×seq tokens: 2·P per token for the dense layers plus the attention
// score/value products 4·L·h·seq per token.
func (c Config) FwdFLOPsPerIter(batch, seq int) float64 {
	tokens := float64(batch) * float64(seq)
	dense := 2 * float64(c.Params()) * tokens
	attn := 4 * float64(c.Layers) * float64(c.Hidden) * float64(seq) * tokens
	return dense + attn
}

// IterFLOPs returns total fwd+bwd FLOPs per iteration (backward costs 2×
// forward). Recompute from activation checkpointing is NOT included: the
// paper reports effective TFLOPS excluding recomputation (§5.2).
func (c Config) IterFLOPs(batch, seq int) float64 {
	return 3 * c.FwdFLOPsPerIter(batch, seq)
}

// ---- memory model (bytes) ----

// Mixed-precision state sizes per parameter (§2.2: "16Ψ bytes ... 2Ψ
// parameters, 2Ψ gradients, and 12Ψ optimizer states").
const (
	BytesFP16Param     = 2
	BytesFP16Grad      = 2
	BytesOptimStates   = 12 // fp32 master param + momentum + variance
	BytesAllStates     = 16
	BytesFP32Grad      = 4
	BytesCPUStatesFull = 18 // optimizer states + fp32 grad + fp16 param copy
)

// StateBytes returns the full mixed-precision model-state footprint (16Ψ).
func (c Config) StateBytes() int64 { return BytesAllStates * c.Params() }

// ActivationBytesPerTokenLayer is the fp16 working set retained per token
// per layer without checkpointing, as a multiple of the hidden size: ~34
// covers QKV, attention probabilities at moderate sequence length, the
// 4× MLP intermediates and the residuals (fused attention assumed, so no
// seq² term).
const ActivationBytesPerTokenLayer = 34

// CheckpointFraction is the activation memory retained under full
// activation checkpointing (layer-boundary tensors only).
const CheckpointFraction = 1.0 / 17.0

// ActivationBytes returns the activation footprint for one iteration.
func (c Config) ActivationBytes(batch, seq int, checkpoint bool) int64 {
	per := float64(ActivationBytesPerTokenLayer) * float64(c.Hidden)
	total := per * float64(batch) * float64(seq) * float64(c.Layers)
	if checkpoint {
		total *= CheckpointFraction
	}
	// Logit layer activations (batch·seq·vocab fp16) matter for small
	// models with big vocabularies.
	total += 2 * float64(batch) * float64(seq) * float64(c.Vocab) * 0.25
	return int64(total)
}

// GradBucketCount returns how many buckets of the given byte size the
// fp16 gradient stream splits into.
func (c Config) GradBucketCount(bucketBytes int64) int {
	gradBytes := BytesFP16Grad * c.Params()
	n := int((gradBytes + bucketBytes - 1) / bucketBytes)
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) String() string {
	return fmt.Sprintf("%s(L=%d h=%d P=%.2fB)", c.Name, c.Layers, c.Hidden, float64(c.Params())/1e9)
}
