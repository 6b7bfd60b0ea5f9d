package nn

// Pipeline-stage arithmetic: the pipeline engine splits the transformer
// depth into contiguous block ranges, one per stage, with stage 0 owning
// the embeddings and the last stage owning the final layernorm and head.
// The helpers here map a (stage, stages) pair to its block range and to
// its span of the flat Params() registration-order layout — the span the
// stage's ring reduction and cross-cell reduce-scatter cover.

import "fmt"

// Registration-layout constants mirroring newGPT: the parameter list
// opens with 2 embedding params, carries 12 params per transformer
// block, and closes with 3 tail params (final layernorm gain/bias and
// the head).
const (
	embParams   = 2
	blockParams = 12
	tailParams  = 3
)

// StageLayers returns the contiguous transformer-block range [lo, hi)
// pipeline stage `stage` of `stages` owns: blocks split as evenly as
// possible, with the first layers%stages stages taking one extra block.
func StageLayers(layers, stage, stages int) (lo, hi int) {
	base, extra := layers/stages, layers%stages
	lo = stage*base + min(stage, extra)
	hi = lo + base
	if stage < extra {
		hi++
	}
	return lo, hi
}

// StageParamSpan returns the flat Params() offset range [lo, hi) covering
// stage's parameters: stage 0 opens with the embeddings, the last stage
// closes with the final layernorm and head, and every stage carries its
// StageLayers block range in between. Spans partition [0, TotalSize()).
func (g *GPT) StageParamSpan(stage, stages int) (lo, hi int) {
	if want := embParams + blockParams*len(g.Blocks) + tailParams; len(g.params) != want {
		panic(fmt.Sprintf("nn: registration layout drifted: %d params, want %d", len(g.params), want))
	}
	blo, bhi := StageLayers(len(g.Blocks), stage, stages)
	if stage > 0 {
		lo = g.paramOffsetAt(embParams + blo*blockParams)
	}
	hi = g.params.TotalSize()
	if stage < stages-1 {
		hi = g.paramOffsetAt(embParams + bhi*blockParams)
	}
	return lo, hi
}

// paramOffsetAt sums the sizes of the first n registered parameters —
// the flat-layout offset where parameter n begins.
func (g *GPT) paramOffsetAt(n int) int {
	off := 0
	for _, p := range g.params[:n] {
		off += p.Size()
	}
	return off
}
