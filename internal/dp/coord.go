package dp

import (
	"fmt"

	"superoffload/internal/data"
	"superoffload/internal/obs"
	"superoffload/internal/stv"
)

// coordinator is the engine's control plane: it owns the run's
// stv.Verdict — the step counter, loss-scale and learning-rate plumbing,
// pending-verdict bookkeeping and verdict policy — and drives the ranks
// from it.
type coordinator struct {
	cfg Config
	ctl *stv.Verdict
	// results holds the ranks' reports of the current step, and
	// schedules one op list per (stage, stages, micros), built once and
	// read by every rank of that stage.
	results   []stepResult
	schedules map[[3]int][]scheduleOp
}

// Stats returns the engine's validation counters. Safe to call from
// another goroutine while training runs (live metrics polling).
func (c *coordinator) Stats() stv.Stats { return c.ctl.Stats() }

// StepIndex reports how many optimizer steps the engine has attempted.
func (c *coordinator) StepIndex() int { return c.ctl.StepIndex() }

// closeStores closes every store, folding the first failure into err.
func closeStores(stores []stv.BucketStore, err error) error {
	for _, st := range stores {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// runStep drives one iteration over the world. The step structure
// itself lives in the schedules: each rank receives the op sequence
// stageSchedule emits for its stage and this step's micro count, and the
// rank-side interpreter (runSchedule) executes it. The coordinator only
// keeps the control plane — dispatch the schedules, resolve the previous
// step's verdict while the early forwards run, release the ranks into
// backward via goMsg, collect their step reports in rank order, and sum
// the owners' per-bucket sums of squares into this step's pending
// verdict. The caller folds the reported losses in canonical order.
func (c *coordinator) runStep(w *world, micross [][]data.Batch) ([]stepResult, error) {
	if err := c.ctl.Live(); err != nil {
		return nil, err
	}
	adam := c.ctl.BeginStep()
	var sp obs.Span
	if w.ctrack != nil {
		sp = w.ctrack.Begin("step")
	}
	for r := 0; r < w.N; r++ {
		w.cmd[r] <- command{kind: cmdStep, micros: micross[r], ops: c.schedule(r%w.P, w.P, len(micross[r]))}
	}
	// Ranks are now forwarding; the pending verdict resolves in parallel
	// with that compute.
	res := c.ctl.Resolve()
	for r := 0; r < w.N; r++ {
		w.resolution[r] <- res
	}
	if res.WeightsChanged() {
		c.ctl.Redo()
	}
	g := goMsg{
		adam:   adam,
		scale:  c.ctl.Scale(),
		inject: c.cfg.InjectBad != nil && c.cfg.InjectBad(c.ctl.StepIndex()),
	}
	for r := 0; r < w.N; r++ {
		w.goCh[r] <- g
	}
	out := c.results
	for r := 0; r < w.N; r++ {
		out[r] = <-w.results[r]
	}
	// The receives above order every owner's w.sumsq writes before this
	// read (see world.sumsq).
	var sumsq float64
	for _, s := range w.sumsq {
		sumsq += s
	}
	if w.ctrack != nil {
		sp.EndInt("step", c.ctl.StepIndex())
	}
	c.ctl.Launched(adam, sumsq)
	return out, nil
}

// schedule returns stage's op list for a step of micros micro-batches
// over stages stages (stageSchedule's, built on first use).
func (c *coordinator) schedule(stage, stages, micros int) []scheduleOp {
	k := [3]int{stage, stages, micros}
	ops, ok := c.schedules[k]
	if !ok {
		ops = stageSchedule(stage, stages, micros)
		if c.schedules == nil {
			c.schedules = map[[3]int][]scheduleOp{}
		}
		c.schedules[k] = ops
	}
	return ops
}

// flush resolves any pending verdict over the world (call at end of
// training so the final step is validated). Returns whether the
// final step was rolled back or re-executed.
func (c *coordinator) flush(w *world) (bool, error) {
	if err := c.ctl.Live(); err != nil {
		return false, err
	}
	res := c.ctl.Resolve()
	if res.Action == stv.None {
		return false, nil
	}
	for r := 0; r < w.N; r++ {
		w.cmd[r] <- command{kind: cmdResolve, res: res}
	}
	for r := 0; r < w.N; r++ {
		<-w.results[r]
	}
	return res.WeightsChanged(), nil
}

// closeWorld resolves any pending verdict, stops the rank goroutines,
// and closes every rank's bucket store and activation store. Idempotent;
// the engine is unusable afterwards.
func (c *coordinator) closeWorld(w *world, ranks []*rank) error {
	if c.ctl.Live() != nil {
		return nil
	}
	_, err := c.flush(w)
	for r := 0; r < w.N; r++ {
		w.cmd[r] <- command{kind: cmdStop}
	}
	c.ctl.Close()
	for _, rk := range ranks {
		if cerr := rk.store.Close(); err == nil {
			err = cerr
		}
		if rk.ast != nil {
			if aerr := rk.ast.Close(); err == nil {
				err = aerr
			}
		}
	}
	return err
}

// buildPerRank calls factory once per rank before any rank goroutine
// starts, so a failing constructor can unwind cleanly: what the earlier
// ranks built is closed and the error names the rank and what it was
// building. A factory may return a nil T for a rank that gets none.
func buildPerRank[T interface {
	comparable
	Close() error
}](n int, what string, factory func(rank int) (T, error)) ([]T, error) {
	var none T
	built := make([]T, n)
	for id := range built {
		v, err := factory(id)
		if err != nil {
			for _, b := range built[:id] {
				if b != none {
					b.Close()
				}
			}
			return nil, fmt.Errorf("dp: building rank %d %s: %w", id, what, err)
		}
		built[id] = v
	}
	return built, nil
}
