package nn

import (
	"math"
	"testing"

	"superoffload/internal/model"
	"superoffload/internal/tensor"
)

func tinyModel(seed uint64) *GPT {
	cfg := model.Config{Name: "t", Layers: 2, Hidden: 16, Heads: 2, Vocab: 17}
	return NewGPT(cfg, 8, tensor.NewRNG(seed))
}

func tinyBatch(g *GPT, seed uint64, batch, seq int) (tokens, targets []int) {
	rng := tensor.NewRNG(seed)
	tokens = make([]int, batch*seq)
	targets = make([]int, batch*seq)
	for i := range tokens {
		tokens[i] = rng.Intn(g.Cfg.Vocab)
		targets[i] = rng.Intn(g.Cfg.Vocab)
	}
	return
}

func TestForwardLossIsFiniteAndNearUniform(t *testing.T) {
	g := tinyModel(1)
	tokens, targets := tinyBatch(g, 2, 2, 8)
	loss, _ := g.Forward(tokens, targets, 2, 8)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v", loss)
	}
	// With tiny random init, logits ≈ 0 ⇒ loss ≈ ln(vocab).
	want := math.Log(float64(g.Cfg.Vocab))
	if math.Abs(loss-want) > 0.5 {
		t.Errorf("initial loss %.3f far from ln(V)=%.3f", loss, want)
	}
}

// TestGradCheck verifies the full analytic backward pass against central
// finite differences on a sample of parameters from every layer type.
func TestGradCheck(t *testing.T) {
	g := tinyModel(3)
	tokens, targets := tinyBatch(g, 4, 2, 6)
	batch, seq := 2, 6

	g.Params().ZeroGrads()
	_, cache := g.Forward(tokens, targets, batch, seq)
	g.Backward(cache, 1)

	const eps = 1e-3
	const tol = 2e-2 // relative, fp32 forward differencing is noisy
	checked := 0
	for _, p := range g.Params() {
		// Sample a few indices per parameter.
		idxs := []int{0, p.Size() / 2, p.Size() - 1}
		for _, idx := range idxs {
			orig := p.W.Data[idx]
			p.W.Data[idx] = orig + eps
			lp, _ := g.Forward(tokens, targets, batch, seq)
			p.W.Data[idx] = orig - eps
			lm, _ := g.Forward(tokens, targets, batch, seq)
			p.W.Data[idx] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.G.Data[idx])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(math.Abs(numeric), math.Abs(analytic))
			if scale > 1e-4 && diff/scale > tol {
				t.Errorf("%s[%d]: analytic %.6g vs numeric %.6g (rel %.3f)",
					p.Name, idx, analytic, numeric, diff/scale)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

func TestGradAccumulationAddsUp(t *testing.T) {
	g := tinyModel(5)
	tok1, tgt1 := tinyBatch(g, 6, 1, 4)
	tok2, tgt2 := tinyBatch(g, 7, 1, 4)

	// Two backward calls accumulate.
	g.Params().ZeroGrads()
	_, c1 := g.Forward(tok1, tgt1, 1, 4)
	g.Backward(c1, 1)
	_, c2 := g.Forward(tok2, tgt2, 1, 4)
	g.Backward(c2, 1)
	accum := g.Blocks[0].WQKV.G.Clone()

	// Separate runs summed manually.
	g.Params().ZeroGrads()
	_, c1 = g.Forward(tok1, tgt1, 1, 4)
	g.Backward(c1, 1)
	first := g.Blocks[0].WQKV.G.Clone()
	g.Params().ZeroGrads()
	_, c2 = g.Forward(tok2, tgt2, 1, 4)
	g.Backward(c2, 1)
	for i := range first.Data {
		want := first.Data[i] + g.Blocks[0].WQKV.G.Data[i]
		if math.Abs(float64(accum.Data[i]-want)) > 1e-5 {
			t.Fatalf("accumulation mismatch at %d", i)
		}
	}
}

func TestLossScaleScalesGradients(t *testing.T) {
	g := tinyModel(9)
	tokens, targets := tinyBatch(g, 10, 1, 4)
	g.Params().ZeroGrads()
	_, c := g.Forward(tokens, targets, 1, 4)
	g.Backward(c, 1)
	base := g.Head.G.Clone()
	g.Params().ZeroGrads()
	_, c = g.Forward(tokens, targets, 1, 4)
	g.Backward(c, 1024)
	for i := range base.Data {
		if math.Abs(float64(g.Head.G.Data[i]-1024*base.Data[i])) > 1e-2*math.Abs(float64(1024*base.Data[i]))+1e-6 {
			t.Fatalf("grad not scaled at %d: %v vs %v", i, g.Head.G.Data[i], 1024*base.Data[i])
		}
	}
}

func TestCausality(t *testing.T) {
	// Changing a future token must not change the loss attributed to
	// earlier positions. We check logits indirectly: loss over position
	// 0..k-1 only (targets beyond masked out by comparing forward
	// losses with identical prefixes).
	g := tinyModel(11)
	seq := 6
	tokens1, targets := tinyBatch(g, 12, 1, seq)
	tokens2 := append([]int(nil), tokens1...)
	tokens2[seq-1] = (tokens2[seq-1] + 1) % g.Cfg.Vocab

	// Per-token losses via crossEntropy on each position: compare
	// total loss restricted to first seq-1 positions by zeroing the
	// final target contribution — instead, compare probabilities of
	// position 0's next-token prediction directly.
	l1 := perPositionLosses(g, tokens1, targets, seq)
	l2 := perPositionLosses(g, tokens2, targets, seq)
	for i := 0; i < seq-1; i++ {
		if math.Abs(l1[i]-l2[i]) > 1e-5 {
			t.Fatalf("position %d loss changed when future token edited: %v vs %v", i, l1[i], l2[i])
		}
	}
}

// perPositionLosses computes token-level losses by running the model and
// extracting each position's cross-entropy from a single forward pass.
func perPositionLosses(g *GPT, tokens, targets []int, seq int) []float64 {
	out := make([]float64, seq)
	for pos := 0; pos < seq; pos++ {
		// Forward on prefix up to pos+1; the last position's loss is
		// position pos's prediction loss.
		pre := tokens[:pos+1]
		tg := targets[:pos+1]
		loss, _ := g.Forward(pre, tg, 1, pos+1)
		// loss is mean over pos+1 tokens; recover sum and subtract
		// previous sums to isolate the final position.
		out[pos] = loss * float64(pos+1)
		if pos > 0 {
			prev, _ := g.Forward(tokens[:pos], targets[:pos], 1, pos)
			out[pos] -= prev * float64(pos)
		}
	}
	return out
}

func TestTrainingReducesLoss(t *testing.T) {
	g := tinyModel(21)
	// Learnable pattern: next token = (token + 1) mod V.
	seq, batch := 8, 4
	rng := tensor.NewRNG(33)
	lr := float32(0.05)

	var first, last float64
	for step := 0; step < 200; step++ {
		tokens := make([]int, batch*seq)
		targets := make([]int, batch*seq)
		for i := range tokens {
			tokens[i] = rng.Intn(g.Cfg.Vocab)
			targets[i] = (tokens[i] + 1) % g.Cfg.Vocab
		}
		g.Params().ZeroGrads()
		loss, cache := g.Forward(tokens, targets, batch, seq)
		g.Backward(cache, 1)
		if step == 0 {
			first = loss
		}
		last = loss
		for _, p := range g.Params() {
			for i, g := range p.G.Data {
				p.W.Data[i] -= lr * g
			}
		}
	}
	if last > first*0.7 {
		t.Errorf("SGD did not learn: first %.3f, last %.3f", first, last)
	}
}

func TestParamsRegistryComplete(t *testing.T) {
	g := tinyModel(1)
	// 2 embeddings + L*12 block params + 2 final LN + head.
	want := 2 + g.Cfg.Layers*12 + 2 + 1
	if len(g.Params()) != want {
		t.Errorf("param count %d, want %d", len(g.Params()), want)
	}
	if g.NumParams() != g.Params().TotalSize() {
		t.Error("NumParams mismatch")
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	g := tinyModel(1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("shape", func() { g.Forward([]int{1, 2}, []int{1}, 1, 2) })
	mustPanic("seq too long", func() {
		tk := make([]int, 100)
		g.Forward(tk, tk, 1, 100)
	})
	mustPanic("bad token", func() { g.Forward([]int{9999}, []int{0}, 1, 1) })
}
