package nn

// The transformer pass. There is one forward/backward in this package and
// it is sharded: S sequence ranks (SuperOffload-Ulysses, §4.7) each own a
// contiguous sequence shard of every batch row, P pipeline stages each
// own a contiguous block range, and attention switches to head
// parallelism via two all-to-alls per layer per pass — one turning
// sequence-sharded Q/K/V projections into head-sharded full-sequence
// tensors, one turning the head outputs back into sequence shards.
// GPT.Forward/Backward (gpt.go) are its S=1, stage 0 of 1 case, run
// over lanes of batch rows (lanes.go).
//
// Everything outside attention is row-wise (embedding lookup, layernorm,
// linear, GELU, softmax cross-entropy), so a rank's local activations are
// bit-identical to the corresponding row slice of an unsharded forward,
// and after the first all-to-all a rank's per-head attention is the same
// computation on the same (T, hs) tensors whatever S is. The delicate
// part is weight gradients: they are sums over all B·T rows, and float32
// addition is not associative, so summing per-rank partials would NOT
// reproduce the unsharded fold. Instead BackwardSPStage only propagates
// dx (retaining each parameterized op's (input, d-output) pair), and
// Lanes.Replay replays the gradient accumulation for a batch-row range
// on top of whatever partial the destination carries. Chaining the replay
// through the ranks in (batch row, sequence shard) order visits rows in
// ascending global row order, so the completed gradient is the same
// one-add-at-a-time fold for every (S, P) — which is what keeps every
// shape bit-identical to the single rank through STV's speculative
// steps, rollbacks, and checkpoints.

import (
	"fmt"
	"math"

	"superoffload/internal/tensor"
)

// SP describes one rank's place in a sequence-parallel (Ulysses) world
// and the collective it exchanges attention heads over.
type SP struct {
	// Rank ∈ [0, Ranks): this rank owns sequence positions
	// [Rank·Tl, (Rank+1)·Tl) of every batch row and attention heads
	// [Rank·H/Ranks, (Rank+1)·H/Ranks).
	Rank  int
	Ranks int
	// AllToAll exchanges one payload per peer: send[d] is delivered to
	// rank d, and recv[s] is filled with the payload rank s addressed
	// here. The rank's own entry (d = s = Rank) is skipped on both sides:
	// that shard never leaves the rank. Receivers copy out of recv before
	// their next exchange and never write it (see workspace.go for why a
	// sender may then reuse the payload). May be nil when Ranks == 1.
	AllToAll func(send, recv [][]float32)
	// Tap, when set, observes layer boundaries on this rank's passes. It
	// lives here, not on the model, because several SP ranks may share
	// one read-only GPT. The fetched buffers stay restored through the
	// Lanes.Replay weight-gradient replay.
	Tap ActivationTap
	// batch, when non-zero, is the row count of the whole batch this pass
	// runs one lane of (GPT.Forward's lanes, gpt.go): the loss gradient
	// is normalised by every lane's rows, not by this pass's.
	batch int
}

// ValidateSP checks the sequence-parallel sharding arithmetic for this
// model: malformed configurations fail loudly here instead of training
// corrupted attention (the seq%S analogue of the hidden%heads check in
// newGPT).
func (g *GPT) ValidateSP(ranks, globalSeq int) error {
	if ranks < 1 {
		return fmt.Errorf("nn: sequence-parallel ranks must be >= 1, got %d", ranks)
	}
	if g.Cfg.Heads%ranks != 0 {
		return fmt.Errorf("nn: %d attention heads not divisible by %d sequence ranks", g.Cfg.Heads, ranks)
	}
	if globalSeq%ranks != 0 {
		return fmt.Errorf("nn: sequence %d not divisible by %d sequence ranks", globalSeq, ranks)
	}
	if globalSeq > g.MaxSeq {
		return fmt.Errorf("nn: sequence %d exceeds max %d", globalSeq, g.MaxSeq)
	}
	return nil
}

// layerCache retains one block's forward intermediates plus the
// backward-pass d-outputs the weight-gradient replay needs.
type layerCache struct {
	ln1      layerNormCache
	ln1y     *tensor.Tensor   // input rows to WQKV
	q, k, v  []*tensor.Tensor // per b·Hl+hi: full-sequence (T, hs) for this rank's heads
	probs    []*tensor.Tensor // post-softmax scores per b·Hl+hi
	attnOut  *tensor.Tensor   // local rows (B·Tl, C), pre-projection
	res1     *tensor.Tensor
	ln2      layerNormCache
	ln2y     *tensor.Tensor
	geluGrad *tensor.Tensor // gelu′ of the W1 output, written by the forward (see gelu)
	hGelu    *tensor.Tensor
	bufs     [][]float32 // the activation tap's view of the above (see actBufs)

	// d-outputs retained by BackwardSPStage, paired with the inputs above
	// for the per-row weight-gradient replay.
	dh2   *tensor.Tensor // dy into W2/B2 (input: hGelu)
	dh1   *tensor.Tensor // dy into W1/B1 (input: ln2y)
	dln2y *tensor.Tensor // dy into LN2 gain/bias
	dres1 *tensor.Tensor // dy into WO/BO (input: attnOut)
	dqkv  *tensor.Tensor // dy into WQKV/BQKV (input: ln1y)
	dln1y *tensor.Tensor // dy into LN1 gain/bias
}

// FwdCache retains one iteration's intermediates for BackwardSPStage and
// the Lanes.Replay replay, and owns everything they live in: the
// workspace arena, the per-layer structs and the per-head pointer
// slices. Handing a cache back to ForwardSPStage refills all of it in
// place, so a slot that is forwarded again and again — a lane of a
// model's Forward, a rank's micro-batch m — allocates nothing in steady
// state.
// The arena is per cache, not per model, because sequence ranks may
// share one GPT's weights across goroutines and a pipeline stage keeps
// several micro-batches in flight.
type FwdCache struct {
	g        *GPT
	tokens   []int
	batch    int
	localSeq int
	posOff   int

	// stage/stages identify the pipeline stage whose block range this
	// cache covers (0 of 1 for Forward/Backward).
	stage, stages int

	ws     workspace
	layers []layerCache

	stageOut *tensor.Tensor // boundary activation a non-final stage ships downstream
	lnf      layerNormCache
	lnfy     *tensor.Tensor
	dlogit   *tensor.Tensor // unscaled CE gradient (local rows; final stage only)

	// retained by BackwardSPStage:
	dlogitScaled *tensor.Tensor // dy into Head (input: lnfy; final stage only)
	dlnfy        *tensor.Tensor // dy into LNF gain/bias (final stage only)
	dIn          *tensor.Tensor // d-input of the stage's first block: the
	// embedding-layer gradient rows on stage 0, the boundary gradient for
	// the upstream stage otherwise.

	// Per-head scratch every layer of a pass reuses, and the exchange's
	// per-peer payload lists.
	o, do, dq, dk, dv []*tensor.Tensor
	send, recv        [][]float32
}

// StageOut returns the boundary activation a non-final stage's forward
// produced — the (batch·localSeq, hidden) tensor the pipeline engine
// ships downstream. The data stays valid until the cache's next forward,
// so it passes between stage goroutines by reference. Nil on the final
// stage.
func (cache *FwdCache) StageOut() *tensor.Tensor { return cache.stageOut }

// StageDIn returns the boundary gradient BackwardSPStage left behind:
// the d-input of this stage's first block, which the pipeline engine
// ships upstream (on stage 0 it is instead the embedding-layer gradient
// Lanes.Replay folds). Nil until BackwardSPStage runs.
func (cache *FwdCache) StageDIn() *tensor.Tensor { return cache.dIn }

// ForwardSPStage runs pipeline stage `stage` of `stages` — transformer
// blocks StageLayers(layers, stage, stages) — over this rank's sequence
// shard: tokens and targets hold batch rows of localSeq consecutive
// positions starting at global position Rank·localSeq. Stage 0 embeds
// from tokens; later stages take the upstream boundary activation xIn
// (batch·localSeq rows, read but never written). reuse, when non-nil, is
// the slot's previous cache, taken over in place and returned; nil builds
// a fresh one. The final stage computes the head and returns the per-row
// token losses in local row order (they live in the cache's arena) — the
// caller folds them across ranks in global row order, so their sum
// divided by the global row count is the same mean loss for every S;
// earlier stages return nil losses and expose the boundary output via
// StageOut. The stage split computes the same blocks over the same
// inputs, so it is bit-invisible.
func (g *GPT) ForwardSPStage(tokens, targets []int, batch, localSeq int, sp *SP, stage, stages int, xIn *tensor.Tensor, reuse *FwdCache) ([]float64, *FwdCache) {
	globalSeq := localSeq * sp.Ranks
	if err := g.ValidateSP(sp.Ranks, globalSeq); err != nil {
		panic(err)
	}
	if stages < 1 || stages > len(g.Blocks) {
		panic(fmt.Sprintf("nn: %d layers cannot split across %d pipeline stages (every stage needs a block)", len(g.Blocks), stages))
	}
	if stage < 0 || stage >= stages {
		panic(fmt.Sprintf("nn: pipeline stage %d out of range [0,%d)", stage, stages))
	}
	if sp.Rank < 0 || sp.Rank >= sp.Ranks {
		panic(fmt.Sprintf("nn: sequence rank %d out of range [0,%d)", sp.Rank, sp.Ranks))
	}
	if len(tokens) != batch*localSeq || len(targets) != batch*localSeq {
		panic("nn: token/target shape mismatch")
	}
	c := g.Cfg.Hidden
	hl := g.Cfg.Heads / sp.Ranks
	hs := c / g.Cfg.Heads
	scale := float32(1 / math.Sqrt(float64(hs)))
	n := batch * localSeq
	blo, bhi := StageLayers(len(g.Blocks), stage, stages)

	cache := reuse
	if cache == nil {
		cache = &FwdCache{}
	}
	cache.g, cache.tokens, cache.batch, cache.localSeq = g, tokens, batch, localSeq
	cache.posOff, cache.stage, cache.stages = sp.Rank*localSeq, stage, stages
	cache.stageOut, cache.dIn = nil, nil
	if len(cache.layers) != bhi-blo {
		cache.layers = make([]layerCache, bhi-blo)
	}
	ws := &cache.ws
	ws.reset()
	var x *tensor.Tensor
	if stage == 0 {
		x = ws.get(n, c)
		for i, tok := range tokens {
			if tok < 0 || tok >= g.Cfg.Vocab {
				panic(fmt.Sprintf("nn: token %d out of vocab", tok))
			}
			t := cache.posOff + i%localSeq
			dst := x.Data[i*c : (i+1)*c]
			te := g.TokEmb.W.Data[tok*c : (tok+1)*c]
			pe := g.PosEmb.W.Data[t*c : (t+1)*c]
			for j := 0; j < c; j++ {
				dst[j] = te[j] + pe[j]
			}
		}
	} else {
		if xIn == nil || xIn.Dim(0) != n || xIn.Dim(1) != c {
			panic("nn: stage boundary activation shape mismatch")
		}
		x = xIn
	}

	if sp.Tap != nil {
		sp.Tap.BeginPass(bhi-blo, n, globalSeq)
	}
	cache.o = ws.heads(cache.o, batch*hl, globalSeq, hs)
	for l := blo; l < bhi; l++ {
		blk := g.Blocks[l]
		lc := &cache.layers[l-blo]
		lc.ln1y = layerNorm(ws, x, blk.LN1G, blk.LN1B, &lc.ln1)
		qkv := linear(ws, lc.ln1y, blk.WQKV, blk.BQKV)

		// All-to-all #1: sequence-sharded fused projections become
		// head-sharded full-sequence Q, K, V for this rank's heads.
		lc.q = ws.heads(lc.q, batch*hl, globalSeq, hs)
		lc.k = ws.heads(lc.k, batch*hl, globalSeq, hs)
		lc.v = ws.heads(lc.v, batch*hl, globalSeq, hs)
		cache.seqToHeads(sp, qkv, lc.q, lc.k, lc.v)
		lc.probs = ws.heads(lc.probs, batch*hl, globalSeq, globalSeq)
		for bh, oh := range cache.o {
			attendHeadInto(oh, lc.probs[bh], lc.q[bh], lc.k[bh], lc.v[bh], scale)
		}
		// All-to-all #2: head outputs return to sequence sharding.
		lc.attnOut = ws.get(n, c)
		cache.headsToSeq(sp, lc.attnOut, cache.o)

		proj := linear(ws, lc.attnOut, blk.WO, blk.BO)
		lc.res1 = ws.get(n, c)
		tensor.AddInto(lc.res1, x, proj)

		lc.ln2y = layerNorm(ws, lc.res1, blk.LN2G, blk.LN2B, &lc.ln2)
		lc.geluGrad = linear(ws, lc.ln2y, blk.W1, blk.B1)
		lc.hGelu = gelu(ws, lc.geluGrad)
		h2 := linear(ws, lc.hGelu, blk.W2, blk.B2)

		x = ws.get(n, c)
		tensor.AddInto(x, lc.res1, h2)
		if sp.Tap != nil {
			sp.Tap.StashLayer(l-blo, lc.actBufs())
		}
	}

	if stage < stages-1 {
		cache.stageOut = x
		return nil, cache
	}
	cache.lnfy = layerNorm(ws, x, g.LNFG, g.LNFB, &cache.lnf)
	logits := linear(ws, cache.lnfy, g.Head, nil)
	globalBatch := batch
	if sp.batch > 0 {
		globalBatch = sp.batch
	}
	losses, dlogits := crossEntropyRows(ws, logits, targets, globalBatch*globalSeq)
	cache.dlogit = dlogits
	return losses, cache
}

// BackwardSPStage propagates activation gradients through the stage's
// block range for the iteration captured in cache, running the two
// reverse all-to-alls per layer. It never touches Params().G: every
// parameterized op's (input, d-output) pair is retained on the cache for
// the Lanes.Replay replay. The final stage seeds from its own loss
// gradient (the lossScale factor applies there and only there — it rides
// the chain to every earlier stage); other stages seed from dOut, the
// boundary gradient the downstream stage left in its StageDIn. On return
// this cache's StageDIn holds the gradient for the next stage up.
func (g *GPT) BackwardSPStage(cache *FwdCache, lossScale float64, sp *SP, dOut *tensor.Tensor) {
	ws := &cache.ws
	var dx *tensor.Tensor
	if cache.stage == cache.stages-1 {
		dlogits := cache.dlogit
		if lossScale != 1 {
			dlogits = ws.get(cache.dlogit.Dim(0), cache.dlogit.Dim(1))
			copy(dlogits.Data, cache.dlogit.Data)
			dlogits.Scale(float32(lossScale))
		}
		cache.dlogitScaled = dlogits
		cache.dlnfy = ws.get(dlogits.Dim(0), g.Head.W.Dim(0))
		tensor.MatMulTInto(cache.dlnfy, dlogits, g.Head.W)
		dx = layerNormBackwardDX(ws, cache.dlnfy, &cache.lnf, g.LNFG)
	} else {
		if dOut == nil {
			panic("nn: non-final stage backward needs the downstream boundary gradient")
		}
		dx = dOut
	}

	c := g.Cfg.Hidden
	nh := cache.batch * g.Cfg.Heads / sp.Ranks
	hs := c / g.Cfg.Heads
	scale := float32(1 / math.Sqrt(float64(hs)))
	globalSeq := cache.localSeq * sp.Ranks
	blo, bhi := StageLayers(len(g.Blocks), cache.stage, cache.stages)

	// Per-head scratch, consumed inside each layer.
	cache.do = ws.heads(cache.do, nh, globalSeq, hs)
	cache.dq = ws.heads(cache.dq, nh, globalSeq, hs)
	cache.dk = ws.heads(cache.dk, nh, globalSeq, hs)
	cache.dv = ws.heads(cache.dv, nh, globalSeq, hs)
	dp := ws.get(globalSeq, globalSeq)
	dsS := ws.get(globalSeq, globalSeq)
	for l := bhi - 1; l >= blo; l-- {
		blk := g.Blocks[l]
		lc := &cache.layers[l-blo]
		if sp.Tap != nil {
			sp.Tap.FetchLayer(l - blo)
		}

		// MLP branch: x2 = res1 + W2·gelu(W1·ln2(res1)).
		lc.dh2 = dx
		dhg := ws.get(dx.Dim(0), blk.W2.W.Dim(0))
		tensor.MatMulTInto(dhg, dx, blk.W2.W)
		lc.dh1 = geluBackward(ws, dhg, lc.geluGrad)
		lc.dln2y = ws.get(lc.dh1.Dim(0), blk.W1.W.Dim(0))
		tensor.MatMulTInto(lc.dln2y, lc.dh1, blk.W1.W)
		dres1FromMLP := layerNormBackwardDX(ws, lc.dln2y, &lc.ln2, blk.LN2G)
		lc.dres1 = ws.get(dx.Dim(0), dx.Dim(1))
		tensor.AddInto(lc.dres1, dx, dres1FromMLP)

		// Attention branch, with the two all-to-alls reversed.
		dAttn := ws.get(lc.dres1.Dim(0), blk.WO.W.Dim(0))
		tensor.MatMulTInto(dAttn, lc.dres1, blk.WO.W)
		cache.seqToHeads(sp, dAttn, cache.do)
		for bh := range cache.dq {
			attendHeadBackwardInto(cache.dq[bh], cache.dk[bh], cache.dv[bh], dp, dsS,
				lc.probs[bh], lc.q[bh], lc.k[bh], lc.v[bh], cache.do[bh], scale)
		}
		lc.dqkv = ws.get(dx.Dim(0), 3*c)
		cache.headsToSeq(sp, lc.dqkv, cache.dq, cache.dk, cache.dv)

		lc.dln1y = ws.get(lc.dqkv.Dim(0), blk.WQKV.W.Dim(0))
		tensor.MatMulTInto(lc.dln1y, lc.dqkv, blk.WQKV.W)
		dxFromAttn := layerNormBackwardDX(ws, lc.dln1y, &lc.ln1, blk.LN1G)
		dxNext := ws.get(dx.Dim(0), dx.Dim(1))
		tensor.AddInto(dxNext, lc.dres1, dxFromAttn)
		dx = dxNext
	}
	cache.dIn = dx
}

// accumUnit folds batch rows [bLo, bHi)'s weight-gradient
// contributions to replay unit u — a group of parameters whose folds
// share no destination: the embeddings on stage 0, one per transformer
// block, and the final layernorm and head on the last stage — into the
// destinations next hands out for its parameters in registration order,
// data rows in ascending order, one add at a time.
func (cache *FwdCache) accumUnit(next func(*Param) []float32, u, bLo, bHi int) {
	g := cache.g
	lo, hi := bLo*cache.localSeq, bHi*cache.localSeq
	if cache.stage > 0 {
		u++ // unit 0, the embeddings, is stage 0's
	}
	switch {
	case u == 0:
		// Embeddings (the registration order opens with TokEmb, PosEmb).
		tok, pos := next(g.TokEmb), next(g.PosEmb)
		c := g.Cfg.Hidden
		for r := lo; r < hi; r++ {
			t := cache.posOff + r%cache.localSeq
			src := cache.dIn.Data[r*c : (r+1)*c]
			te := tok[cache.tokens[r]*c : (cache.tokens[r]+1)*c]
			pe := pos[t*c : (t+1)*c]
			for j := 0; j < c; j++ {
				te[j] += src[j]
				pe[j] += src[j]
			}
		}
	case u <= len(cache.layers):
		blo, _ := StageLayers(len(g.Blocks), cache.stage, cache.stages)
		blk := g.Blocks[blo+u-1]
		lc := &cache.layers[u-1]
		accumLayerNormRows(next(blk.LN1G), next(blk.LN1B), &lc.ln1, lc.dln1y, lo, hi)
		tensor.TMatMulAccum(next(blk.WQKV), lc.ln1y, lc.dqkv, lo, hi)
		accumBiasRows(next(blk.BQKV), lc.dqkv, lo, hi)
		tensor.TMatMulAccum(next(blk.WO), lc.attnOut, lc.dres1, lo, hi)
		accumBiasRows(next(blk.BO), lc.dres1, lo, hi)
		accumLayerNormRows(next(blk.LN2G), next(blk.LN2B), &lc.ln2, lc.dln2y, lo, hi)
		tensor.TMatMulAccum(next(blk.W1), lc.ln2y, lc.dh1, lo, hi)
		accumBiasRows(next(blk.B1), lc.dh1, lo, hi)
		tensor.TMatMulAccum(next(blk.W2), lc.hGelu, lc.dh2, lo, hi)
		accumBiasRows(next(blk.B2), lc.dh2, lo, hi)
	default:
		accumLayerNormRows(next(g.LNFG), next(g.LNFB), &cache.lnf, cache.dlnfy, lo, hi)
		tensor.TMatMulAccum(next(g.Head), cache.lnfy, cache.dlogitScaled, lo, hi)
	}
}

// accumBiasRows folds rows [lo,hi)'s db = colsum(dy) contributions into
// dst in ascending row order.
func accumBiasRows(dst []float32, dy *tensor.Tensor, lo, hi int) {
	out := dy.Dim(1)
	for r := lo; r < hi; r++ {
		row := dy.Data[r*out : (r+1)*out]
		for j := range dst {
			dst[j] += row[j]
		}
	}
}

// exchange moves the cross-rank payloads of one all-to-all. Payload
// layout (both directions): (batch row, local head, component, local
// position) nested loops of hs contiguous floats. The rank's own shard
// takes no part — seqToHeads/headsToSeq copy it straight across — so at
// S=1 there is nothing to exchange.
func (cache *FwdCache) exchange(sp *SP) {
	if sp.Ranks > 1 {
		sp.AllToAll(cache.send, cache.recv)
	}
}

// payloads sizes the exchange's per-peer lists for s ranks and hands every
// peer but self an n-float send buffer from the arena.
func (cache *FwdCache) payloads(sp *SP, n int) {
	if len(cache.send) != sp.Ranks {
		cache.send, cache.recv = make([][]float32, sp.Ranks), make([][]float32, sp.Ranks)
	}
	for d := range cache.send {
		if d != sp.Rank {
			cache.send[d] = cache.ws.floats(n)
		}
	}
}

// seqToHeads is all-to-all #1 (and the reverse of #2 in backward): the
// sequence-sharded (B·Tl, ncomp·C) tensor x is redistributed so this rank
// holds, for each of its Hl = H/S heads and each component, the
// full-sequence (T, hs) tensor comps[comp][b·Hl+hi].
func (cache *FwdCache) seqToHeads(sp *SP, x *tensor.Tensor, comps ...[]*tensor.Tensor) {
	batch, localSeq, ncomp := cache.batch, cache.localSeq, len(comps)
	hl := len(comps[0]) / batch
	hs := comps[0][0].Dim(1)
	w := x.Dim(1) // ncomp·C
	n := localSeq * hs
	cache.payloads(sp, batch*hl*ncomp*n)
	for d := 0; d < sp.Ranks; d++ {
		off := 0
		for b := 0; b < batch; b++ {
			for hi := 0; hi < hl; hi++ {
				for comp := 0; comp < ncomp; comp++ {
					dst := comps[comp][b*hl+hi].Data[d*n : (d+1)*n] // own shard: straight across
					if d != sp.Rank {
						dst = cache.send[d][off : off+n]
						off += n
					}
					gatherRows(dst, x, b, localSeq, w, comp*(w/ncomp)+(d*hl+hi)*hs, hs)
				}
			}
		}
	}
	cache.exchange(sp)
	for src := 0; src < sp.Ranks; src++ {
		if src == sp.Rank {
			continue
		}
		buf, off := cache.recv[src], 0
		for b := 0; b < batch; b++ {
			for hi := 0; hi < hl; hi++ {
				for comp := 0; comp < ncomp; comp++ {
					copy(comps[comp][b*hl+hi].Data[src*n:(src+1)*n], buf[off:off+n])
					off += n
				}
			}
		}
	}
}

// headsToSeq is all-to-all #2 (and the reverse of #1 in backward):
// per-head full-sequence (T, hs) tensors — one list per component —
// return to sequence sharding, filling the (B·Tl, ncomp·C) tensor out
// with every head's columns for this rank's positions.
func (cache *FwdCache) headsToSeq(sp *SP, out *tensor.Tensor, comps ...[]*tensor.Tensor) {
	batch, localSeq, ncomp := cache.batch, cache.localSeq, len(comps)
	hl := len(comps[0]) / batch
	hs := comps[0][0].Dim(1)
	w := out.Dim(1) // ncomp·C
	n := localSeq * hs
	cache.payloads(sp, batch*hl*ncomp*n)
	for d := 0; d < sp.Ranks; d++ {
		off := 0
		for b := 0; b < batch; b++ {
			for hi := 0; hi < hl; hi++ {
				for comp := 0; comp < ncomp; comp++ {
					src := comps[comp][b*hl+hi].Data[d*n : (d+1)*n]
					if d == sp.Rank { // own shard: straight across
						scatterRows(out, src, b, localSeq, w, comp*(w/ncomp)+(d*hl+hi)*hs, hs)
						continue
					}
					copy(cache.send[d][off:off+n], src)
					off += n
				}
			}
		}
	}
	cache.exchange(sp)
	for src := 0; src < sp.Ranks; src++ {
		if src == sp.Rank {
			continue
		}
		buf, off := cache.recv[src], 0
		for b := 0; b < batch; b++ {
			for hi := 0; hi < hl; hi++ {
				for comp := 0; comp < ncomp; comp++ {
					scatterRows(out, buf[off:off+n], b, localSeq, w, comp*(w/ncomp)+(src*hl+hi)*hs, hs)
					off += n
				}
			}
		}
	}
}
