package nn

import (
	"fmt"
	"runtime"

	"superoffload/internal/model"
	"superoffload/internal/tensor"
)

// Block is one pre-norm transformer block: x += Attn(LN1(x)); x += MLP(LN2(x)).
type Block struct {
	LN1G, LN1B *Param
	WQKV, BQKV *Param
	WO, BO     *Param
	LN2G, LN2B *Param
	W1, B1     *Param
	W2, B2     *Param
}

// GPT is a causal decoder-only transformer with learned positional
// embeddings and an untied LM head.
type GPT struct {
	Cfg    model.Config
	MaxSeq int

	TokEmb *Param // (vocab, hidden)
	PosEmb *Param // (maxSeq, hidden)
	Blocks []*Block
	LNFG   *Param // final layernorm gain
	LNFB   *Param // final layernorm bias
	Head   *Param // (hidden, vocab)

	params Params

	// lanes is Forward/Backward's pass: one cache per lane, each taken
	// over by the next Forward's lane in place, so steady-state training
	// steps allocate almost nothing.
	lanes Lanes
}

// NewGPT builds a model with N(0, 0.02) initialization (residual
// projections scaled down by depth, GPT-2 style).
func NewGPT(cfg model.Config, maxSeq int, rng *tensor.RNG) *GPT {
	return newGPT(cfg, maxSeq, func(std float32, shape ...int) *tensor.Tensor {
		return tensor.Randn(rng, std, shape...)
	})
}

// newGPT wires the architecture with the given weight initializer (random
// for fresh models, zero for replicas about to be overwritten).
func newGPT(cfg model.Config, maxSeq int, randn func(std float32, shape ...int) *tensor.Tensor) *GPT {
	if cfg.Heads < 1 {
		panic(fmt.Sprintf("nn: config needs at least one attention head, got %d", cfg.Heads))
	}
	if cfg.Hidden%cfg.Heads != 0 {
		panic(fmt.Sprintf("nn: hidden %d not divisible by heads %d: attention would silently truncate the head dim to %d and train corrupted projections",
			cfg.Hidden, cfg.Heads, cfg.Hidden/cfg.Heads))
	}
	c := cfg.Hidden
	g := &GPT{Cfg: cfg, MaxSeq: maxSeq}
	add := func(p *Param) *Param {
		g.params = append(g.params, p)
		return p
	}
	const std = 0.02
	resStd := float32(std / float32(1+cfg.Layers))

	g.TokEmb = add(newParam("tok_emb", randn(std, cfg.Vocab, c)))
	g.PosEmb = add(newParam("pos_emb", randn(std, maxSeq, c)))
	for l := 0; l < cfg.Layers; l++ {
		blk := &Block{}
		name := func(s string) string { return fmt.Sprintf("h%d.%s", l, s) }
		blk.LN1G = add(newParam(name("ln1.g"), ones(c)))
		blk.LN1B = add(newParam(name("ln1.b"), tensor.New(c)))
		blk.WQKV = add(newParam(name("attn.wqkv"), randn(std, c, 3*c)))
		blk.BQKV = add(newParam(name("attn.bqkv"), tensor.New(3*c)))
		blk.WO = add(newParam(name("attn.wo"), randn(resStd, c, c)))
		blk.BO = add(newParam(name("attn.bo"), tensor.New(c)))
		blk.LN2G = add(newParam(name("ln2.g"), ones(c)))
		blk.LN2B = add(newParam(name("ln2.b"), tensor.New(c)))
		blk.W1 = add(newParam(name("mlp.w1"), randn(std, c, 4*c)))
		blk.B1 = add(newParam(name("mlp.b1"), tensor.New(4*c)))
		blk.W2 = add(newParam(name("mlp.w2"), randn(resStd, 4*c, c)))
		blk.B2 = add(newParam(name("mlp.b2"), tensor.New(c)))
		g.Blocks = append(g.Blocks, blk)
	}
	g.LNFG = add(newParam("lnf.g", ones(c)))
	g.LNFB = add(newParam("lnf.b", tensor.New(c)))
	g.Head = add(newParam("head", randn(std, c, cfg.Vocab)))
	return g
}

func ones(n int) *tensor.Tensor {
	t := tensor.New(n)
	t.Fill(1)
	return t
}

// Params returns all trainable parameters in registration order — the
// order the offload engine buckets them in.
func (g *GPT) Params() Params { return g.params }

// Clone returns a new GPT with the same architecture and bit-identical
// weights — a data-parallel replica. Gradients start zeroed. Weights are
// copied, not re-sampled, so cloning costs one pass over the parameters.
func (g *GPT) Clone() *GPT {
	c := newGPT(g.Cfg, g.MaxSeq, func(_ float32, shape ...int) *tensor.Tensor {
		return tensor.New(shape...)
	})
	for i, p := range g.params {
		copy(c.params[i].W.Data, p.W.Data)
	}
	return c
}

// NumParams returns the total trainable element count.
func (g *GPT) NumParams() int { return g.params.TotalSize() }

// Forward runs the model over a (batch, seq) token matrix flattened
// row-major into tokens, computing mean cross-entropy loss against targets
// (same layout): the S=1, stage 0 of 1 case of ForwardSPStage, run over
// min(GOMAXPROCS, batch) lanes of contiguous batch rows at once with the
// bits of one (lanes.go). Returns the loss; call Backward to populate gradients. The returned
// cache is the handle of the model's one recycled pass — valid until the
// next Forward, and the only cache Backward takes.
func (g *GPT) Forward(tokens []int, targets []int, batch, seq int) (float64, *FwdCache) {
	ls := &g.lanes
	n := ls.want
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var loss float64
	for _, r := range ls.Forward(g, tokens, targets, batch, seq, SP{Ranks: 1}, 0, 1, nil, n) {
		loss += r
	}
	return loss / float64(batch*seq), ls.Cache()
}

// Backward accumulates gradients for the pass Forward returned cache for:
// BackwardSPStage on every lane, then the weight-gradient replay over
// every row folded straight onto Params().G, each parameter over the
// lanes in row order — so gradient accumulation across micro-batches
// works by not zeroing between calls, and from zeroed gradients the
// result is the one-add-at-a-time fold every engine shape reproduces.
// lossScale multiplies the loss (mixed-precision loss scaling); gradients
// come out scaled.
func (g *GPT) Backward(cache *FwdCache, lossScale float64) {
	ls := &g.lanes
	if ls.n == 0 || cache != ls.Cache() {
		panic("nn: Backward takes the cache of the model's last Forward")
	}
	ls.Backward(lossScale, nil)
	ls.replay(nil, 0, ls.batch)
}
