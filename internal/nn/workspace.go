package nn

import "superoffload/internal/tensor"

// workspace is a FwdCache's arena: every transient tensor and slice a
// forward/backward/replay cycle needs is handed out from a cursor that
// rewinds at the cache's next forward. Because a pass's allocation
// sequence is deterministic, the second pass through a cache onward runs
// allocation-free.
//
// Lifetime contract: everything handed out is valid until the owning
// cache is next forwarded — i.e. for exactly one
// Forward→Backward→(replay/accumulate) cycle — and is then overwritten in
// place. The cache's own goroutine may therefore keep whatever it likes in
// the arena. What ANOTHER goroutine reads out of it (a stage-boundary
// tensor, the per-row losses, an all-to-all payload) needs a
// happens-before edge from that read to the overwrite:
//
//   - Boundary tensors and loss rows are read inside the engine step that
//     produced them, and a cache slot is next forwarded in a later step,
//     which the coordinator releases only after collecting every rank's
//     report for this one (internal/dp: rank.caches, stepResult).
//   - All-to-all payloads: the engine forwards each slot once per step,
//     so the rule above covers them there. A caller that re-forwards a
//     slot right after its first forward, inside one step (Fig. 8's redo
//     order would), overwrites them sooner, and is still safe. Payload k of
//     a pass is rewritten only by exchange k of the next pass through the
//     cache. A receiver copies payload k out inside its exchange k, before
//     it sends anything for exchange k+1; exchanges pair up FIFO per link;
//     and a sender reaches exchange k of the next pass only after
//     receiving every peer's exchange k−1 of that pass (k ≥ 1) or every
//     peer's exchange 1 of the previous pass (k = 0; a pass has at least
//     two exchanges) — sends the peer made after consuming payload k. So
//     every peer's copy-out happens before the rewrite, with the link's
//     channel operations as the edges.
//
// Anything a reader may hold past those points (a gradient ring buffer
// alternating across micro-batches, staged reduce payloads) must NOT come
// from the workspace.
type workspace struct {
	tensors []*tensor.Tensor
	tcur    int
	f32     [][]float32
	fcur    int
	f64     [][]float64
	dcur    int
}

func (ws *workspace) reset() { ws.tcur, ws.fcur, ws.dcur = 0, 0, 0 }

// get returns a (r,c) tensor with undefined contents — callers must fully
// overwrite it. A shape mismatch (batch/seq change) replaces the slot.
func (ws *workspace) get(r, c int) *tensor.Tensor {
	if ws.tcur < len(ws.tensors) {
		t := ws.tensors[ws.tcur]
		if t.Dim(0) == r && t.Dim(1) == c {
			ws.tcur++
			return t
		}
		t = tensor.New(r, c)
		ws.tensors[ws.tcur] = t
		ws.tcur++
		return t
	}
	t := tensor.New(r, c)
	ws.tensors = append(ws.tensors, t)
	ws.tcur++
	return t
}

// heads resizes the per-head pointer slice dst to n entries and points
// each at a (r,c) arena tensor with undefined contents.
func (ws *workspace) heads(dst []*tensor.Tensor, n, r, c int) []*tensor.Tensor {
	if cap(dst) < n {
		dst = make([]*tensor.Tensor, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = ws.get(r, c)
	}
	return dst
}

// floats returns an n-element float32 scratch slice (undefined contents).
func (ws *workspace) floats(n int) []float32 {
	if ws.fcur < len(ws.f32) && cap(ws.f32[ws.fcur]) >= n {
		s := ws.f32[ws.fcur][:n]
		ws.fcur++
		return s
	}
	s := make([]float32, n)
	if ws.fcur < len(ws.f32) {
		ws.f32[ws.fcur] = s
	} else {
		ws.f32 = append(ws.f32, s)
	}
	ws.fcur++
	return s
}

// floats64 is floats for float64 scratch.
func (ws *workspace) floats64(n int) []float64 {
	if ws.dcur < len(ws.f64) && cap(ws.f64[ws.dcur]) >= n {
		s := ws.f64[ws.dcur][:n]
		ws.dcur++
		return s
	}
	s := make([]float64, n)
	if ws.dcur < len(ws.f64) {
		ws.f64[ws.dcur] = s
	} else {
		ws.f64 = append(ws.f64, s)
	}
	ws.dcur++
	return s
}
