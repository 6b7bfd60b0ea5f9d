package dp

import (
	"fmt"

	"superoffload/internal/stv"
)

// Stats returns the engine's validation counters. Safe to call from
// another goroutine while training runs (live metrics polling).
func (e *Engine) Stats() stv.Stats { return e.ctl.Stats() }

// StepIndex reports how many optimizer steps the engine has attempted.
func (e *Engine) StepIndex() int { return e.ctl.StepIndex() }

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
// rank-side interpreter (runSchedule) executes it. The engine keeps only
// the control plane: resolve the previous step's verdict, send each rank
// one command carrying it with this step's Adam config, loss scale and
// fault bit, collect their step reports in rank order, and sum the
// owners' per-bucket sums of squares into this step's pending verdict.
// The caller folds the reported losses (e.results) in canonical order.
//
// Every rank applies the verdict before its first forward, so no forward
// runs twice. A weight-changing verdict still counts one Redo — the
// forward Fig. 8's order redoes — which keeps Stats equal to the serial
// reference's (stvref) on every shape.
func (e *Engine) runStep() error {
	if err := e.ctl.Live(); err != nil {
		return err
	}
	w := e.w
	adam := e.ctl.BeginStep()
	sp := w.ctrack.Begin("step")
	res := e.ctl.Resolve()
	if res.WeightsChanged() {
		e.ctl.Redo()
	}
	c := command{res: res, adam: adam, scale: e.ctl.Scale(),
		inject: e.cfg.InjectBad != nil && e.cfg.InjectBad(e.ctl.StepIndex())}
	for r := 0; r < w.N; r++ {
		c.micros, c.ops = e.micross[r], e.schedule(r%w.P, len(e.micross[r]))
		w.cmd[r] <- c
	}
	for r := 0; r < w.N; r++ {
		e.results[r] = <-w.results[r]
	}
	// The receives above order every owner's w.sumsq writes before this
	// read (see world.sumsq).
	var sumsq float64
	for _, s := range w.sumsq {
		sumsq += s
	}
	sp.EndInt("step", e.ctl.StepIndex())
	e.ctl.Launched(adam, sumsq)
	return nil
}

// schedule returns stage's op list for a step of micros micro-batches
// (stageSchedule's over the engine's P stages, built on first use).
func (e *Engine) schedule(stage, micros int) []scheduleOp {
	k := [2]int{stage, micros}
	ops, ok := e.schedules[k]
	if !ok {
		ops = stageSchedule(stage, e.w.P, micros)
		e.schedules[k] = ops
	}
	return ops
}

// flushOps is Flush's schedule: apply the verdict, then report.
var flushOps = []scheduleOp{{kind: opResolve}, {kind: opReport}}

// Flush resolves any pending verdict (call at end of training so the
// final step is validated). Returns whether the final step was rolled
// back or re-executed.
func (e *Engine) Flush() (bool, error) {
	if err := e.ctl.Live(); err != nil {
		return false, err
	}
	res := e.ctl.Resolve()
	if res.Action == stv.None {
		return false, nil
	}
	for _, c := range e.w.cmd {
		c <- command{ops: flushOps, res: res}
	}
	for _, r := range e.w.results {
		<-r
	}
	return res.WeightsChanged(), nil
}

// Close resolves any pending verdict, stops the rank goroutines, and
// closes every rank's bucket and activation stores. Idempotent; the
// engine is unusable afterwards.
func (e *Engine) Close() error {
	if e.ctl.Live() != nil {
		return nil
	}
	_, err := e.Flush()
	for _, c := range e.w.cmd {
		close(c)
	}
	e.ctl.Close()
	for _, rk := range e.ranks {
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
