package stv

import (
	"errors"
	"math"
	"sync"

	"superoffload/internal/optim"
)

// Stats counts validation outcomes — the Fig. 14 telemetry.
type Stats struct {
	Steps     int // optimizer steps attempted
	Commits   int // steps that validated clean
	ClipRolls int // rollback + re-execute with clipped gradients
	SkipRolls int // rollback + skip (NaN/Inf)
	Redos     int // forward passes redone after a rollback
}

// Rollbacks returns total rollback events.
func (s Stats) Rollbacks() int { return s.ClipRolls + s.SkipRolls }

// Action is what a resolved validation demands of every bucket.
type Action int

const (
	// None: nothing was pending (the first step, or a second Flush).
	None Action = iota
	// Commit: the speculative step validated clean and stands.
	Commit
	// Skip: NaN/Inf — the iteration is skipped, the speculative update
	// undone entirely (§4.4 rollback scenario 1).
	Skip
	// Clip: the norm bound was violated — revert and re-execute with the
	// gradients scaled by ClipScale (scenario 2).
	Clip
)

// Resolution is the verdict on the previous speculative step, applied to
// every bucket (Bucket.Apply) — on every rank, under internal/dp.
type Resolution struct {
	Action    Action
	ClipScale float64      // gradient scale restoring the norm bound; 1 on Commit
	Adam      optim.Config // Clip: the hyperparameters the speculative step used
}

// WeightsChanged reports whether applying the resolution modifies model
// weights, so that a forward pass already run on them must be redone.
func (r Resolution) WeightsChanged() bool { return r.Action == Skip || r.Action == Clip }

// Verdict is the step-control state of one training run, shared by
// internal/dp's coordinator and the serial reference (stvref): the step counter and
// learning-rate schedule, the loss scale, the one step whose verdict is
// pending with its Adam config and gradient sum of squares, and the
// outcome counters. Resolve is the only place that sum becomes an
// action, a scaler update and a counter, which is what keeps every
// engine shape on the same rollback decisions. Its policy — Adam,
// ClipNorm, Scaler and Schedule — is the Config it was built from. One
// goroutine drives the methods, except Stats, which may be polled from
// any.
type Verdict struct {
	cfg Config

	step        int
	pending     bool
	pendingAdam optim.Config
	sumsq       float64 // the pending step's Σ g², in bucket order
	closed      error   // non-nil once Close has run

	mu    sync.Mutex
	stats Stats
}

// NewVerdict starts the step control of a run under cfg's policy.
func NewVerdict(cfg Config) *Verdict { return &Verdict{cfg: cfg} }

// BeginStep opens the next optimizer step and returns its Adam config,
// the learning-rate schedule applied. A rollback re-executes with the
// config of the step it rolls back, not this one (Resolution.Adam).
func (v *Verdict) BeginStep() optim.Config {
	v.step++
	a := v.cfg.Adam
	if v.cfg.Schedule != nil {
		a.LR *= v.cfg.Schedule(v.step)
	}
	return a
}

// Close marks the run closed: Live, Save and Load fail from then on.
func (v *Verdict) Close() { v.closed = errors.New("stv: engine closed") }

// Live returns an error once the run is closed.
func (v *Verdict) Live() error { return v.closed }

// StepIndex reports how many optimizer steps have been attempted (saved
// in checkpoints, and restored by Load).
func (v *Verdict) StepIndex() int { return v.step }

// Scale returns the current loss scale (1 when scaling is disabled). It
// changes only inside Resolve.
func (v *Verdict) Scale() float64 {
	if v.cfg.Scaler == nil {
		return 1
	}
	return v.cfg.Scaler.Scale
}

// Launched records that the step opened by BeginStep was applied under
// adam and that its verdict is pending: sumsq is the float64 sum of
// squares of its normalised gradients, each bucket's optim.SumSquares
// added in bucket order (optim.GlobalNorm's grouping, so the norm is the
// same bits).
func (v *Verdict) Launched(adam optim.Config, sumsq float64) {
	v.pending, v.pendingAdam, v.sumsq = true, adam, sumsq
	v.bump(func(s *Stats) { s.Steps++ })
}

// Redo counts one forward pass rerun because a resolution changed the
// weights under it.
func (v *Verdict) Redo() { v.bump(func(s *Stats) { s.Redos++ }) }

// Resolve turns the pending step's sum of squares into the resolution
// every bucket must apply, updating the loss scaler and the counters.
// With nothing pending it returns None.
//
// The NaN/Inf check is read off the sum. A finite float32 squared in
// float64 is at most ≈ 1.2e77, so fewer than 10²³⁰ such terms cannot
// overflow; a NaN or ±Inf element squares to NaN or +Inf, and a float64
// sum never returns to finite after either. So the sum is finite exactly
// when every element is.
func (v *Verdict) Resolve() Resolution {
	if !v.pending {
		return Resolution{}
	}
	v.pending = false
	bad := !(v.sumsq <= math.MaxFloat64)
	if v.cfg.Scaler != nil {
		v.cfg.Scaler.Update(bad)
	}
	if bad {
		v.bump(func(s *Stats) { s.SkipRolls++ })
		return Resolution{Action: Skip}
	}
	clip := optim.ClipScale(math.Sqrt(v.sumsq), v.cfg.ClipNorm)
	if clip != 1.0 {
		v.bump(func(s *Stats) { s.ClipRolls++ })
		return Resolution{Action: Clip, ClipScale: clip, Adam: v.pendingAdam}
	}
	v.bump(func(s *Stats) { s.Commits++ })
	return Resolution{Action: Commit, ClipScale: 1}
}

// Stats returns the validation counters. Safe to call concurrently with a
// running step (telemetry pollers).
func (v *Verdict) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// bump applies one mutation to the counters under the polling lock.
func (v *Verdict) bump(f func(*Stats)) {
	v.mu.Lock()
	f(&v.stats)
	v.mu.Unlock()
}
