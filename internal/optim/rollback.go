package optim

import "superoffload/internal/fp16"

// Rollback support for speculation-then-validation (§4.4). The CPU applies
// optimizer steps speculatively per bucket while gradients are still
// arriving; if validation later detects NaN/Inf (skip the whole step) or a
// gradient-clipping violation (re-execute with scaled gradients), the
// already-applied updates must be undone exactly.
//
// The mechanism is Snapshot/Restore: bit-exact, at the cost of one
// bucket's worth of state copies per speculative step, held only until
// validation finishes. internal/stv composes it with MixedShard.Step into
// the skip and clip re-execution paths (stv.Bucket.Apply).

// Snapshot is a bit-exact copy of one shard's state before a speculative
// step.
type Snapshot struct {
	Master []float32
	M, V   []float32
	Step   int
}

// TakeSnapshot captures the shard state (reusing prev's buffers when
// shapes match, so steady-state snapshots allocate nothing).
func TakeSnapshot(prev *Snapshot, sh *MixedShard) *Snapshot {
	n := len(sh.Master)
	s := prev
	if s == nil || len(s.Master) != n {
		s = &Snapshot{Master: make([]float32, n), M: make([]float32, n), V: make([]float32, n)}
	}
	copy(s.Master, sh.Master)
	copy(s.M, sh.State.M)
	copy(s.V, sh.State.V)
	s.Step = sh.State.Step
	return s
}

// Restore rewinds the shard to the snapshot and refreshes the fp16 copy.
func (s *Snapshot) Restore(sh *MixedShard) {
	copy(sh.Master, s.Master)
	copy(sh.State.M, s.M)
	copy(sh.State.V, s.V)
	sh.State.Step = s.Step
	sh.Half = fp16.Cast(sh.Half, sh.Master)
}
