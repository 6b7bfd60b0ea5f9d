package optim

// Snapshot/Restore is the copy-based form of rollback for
// speculation-then-validation (§4.4): a bit-exact copy of one shard's
// state taken before a speculative step, copied back if validation
// rejects it. No engine uses it: internal/stv keeps two versions of each
// bucket and steps from one into the other (MixedShard.StepFrom). The
// benchmark's optim.snapshot_restore_ms probe is the only non-test
// caller; ROADMAP.md item 5(b) retires it, and these with it.

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

// Restore rewinds the shard to the snapshot.
func (s *Snapshot) Restore(sh *MixedShard) {
	copy(sh.Master, s.Master)
	copy(sh.State.M, s.M)
	copy(sh.State.V, s.V)
	sh.State.Step = s.Step
}
