// Package sim is a deterministic discrete-event simulator for heterogeneous
// schedules. Training iterations are expressed as DAGs of tasks bound to
// resources (the GPU compute stream, the D2H and H2D copy engines, the CPU
// worker pool, the NIC); the engine executes the DAG and reports per-resource
// busy intervals, from which the experiments derive iteration time,
// utilization, and idle fractions (Figs. 3, 4, 8, 15).
//
// Semantics: a resource with capacity 1 behaves like a CUDA stream (tasks
// run serially, FIFO in ready order); capacity k models a pool with k
// concurrent slots. A task starts at max(all deps finished, a slot free).
package sim

import "fmt"

// Tag classifies a task for utilization accounting.
type Tag string

const (
	TagCompute  Tag = "compute"
	TagOptim    Tag = "optimizer"
	TagTransfer Tag = "transfer"
	TagCast     Tag = "cast"
	TagComm     Tag = "collective"
	TagValidate Tag = "validate"
	TagIdleWait Tag = "wait"
)

// Task is one unit of work bound to a named resource.
type Task struct {
	id       int
	Name     string
	Resource string
	Duration float64
	Tag      Tag

	deps       []*Task
	dependents []*Task

	// Filled in by Engine.Run.
	Start  float64
	Finish float64
	done   bool
}

// After declares that t runs only after all of the given tasks finish.
// Nil entries are ignored so callers can chain optional stages.
func (t *Task) After(deps ...*Task) *Task {
	for _, d := range deps {
		if d == nil {
			continue
		}
		t.deps = append(t.deps, d)
		d.dependents = append(d.dependents, t)
	}
	return t
}

func (t *Task) String() string {
	return fmt.Sprintf("%s@%s[%.6f,%.6f]", t.Name, t.Resource, t.Start, t.Finish)
}
