package sim

import (
	"container/heap"
	"fmt"
	"sort"
)

// Resource is a named execution lane: capacity 1 models a stream or engine,
// capacity k a worker pool.
type Resource struct {
	Name     string
	Capacity int

	// slot free times, maintained as a min-heap during Run.
	slots slotHeap
	// busy intervals recorded for tracing.
	Intervals []Interval
}

// Interval is one busy span on a resource.
type Interval struct {
	Start, End float64
	Name       string
	Tag        Tag
}

// Engine owns resources and tasks, and runs the DAG.
type Engine struct {
	resources map[string]*Resource
	order     []string
	tasks     []*Task
	ran       bool
}

// New creates an empty engine.
func New() *Engine {
	return &Engine{resources: make(map[string]*Resource)}
}

// AddResource registers a resource lane. Capacity < 1 is treated as 1.
func (e *Engine) AddResource(name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	if r, ok := e.resources[name]; ok {
		r.Capacity = capacity
		return r
	}
	r := &Resource{Name: name, Capacity: capacity}
	e.resources[name] = r
	e.order = append(e.order, name)
	return r
}

// Resource returns a registered resource by name, or nil.
func (e *Engine) Resource(name string) *Resource { return e.resources[name] }

// Add creates a task on the given resource. The resource must have been
// registered; unknown resources are auto-registered with capacity 1 so
// schedule builders stay terse.
func (e *Engine) Add(name, resource string, duration float64, tag Tag) *Task {
	if duration < 0 {
		duration = 0
	}
	if _, ok := e.resources[resource]; !ok {
		e.AddResource(resource, 1)
	}
	t := &Task{id: len(e.tasks), Name: name, Resource: resource, Duration: duration, Tag: tag}
	e.tasks = append(e.tasks, t)
	return t
}

// Run executes the DAG and returns the makespan (latest finish time).
// It is an error to run twice or to have a dependency cycle.
func (e *Engine) Run() (float64, error) {
	if e.ran {
		return 0, fmt.Errorf("sim: engine already ran")
	}
	e.ran = true

	for _, r := range e.resources {
		r.slots = make(slotHeap, r.Capacity)
		heap.Init(&r.slots)
	}

	indeg := make([]int, len(e.tasks))
	readyAt := make([]float64, len(e.tasks))
	for i, t := range e.tasks {
		indeg[i] = len(t.deps)
	}

	var ready readyHeap
	for i, t := range e.tasks {
		if indeg[i] == 0 {
			heap.Push(&ready, readyItem{at: 0, seq: t.id, task: t})
		}
	}

	doneCount := 0
	var makespan float64
	for ready.Len() > 0 {
		item := heap.Pop(&ready).(readyItem)
		t := item.task
		r := e.resources[t.Resource]
		slotFree := r.slots[0]
		start := item.at
		if slotFree > start {
			start = slotFree
		}
		finish := start + t.Duration
		r.slots[0] = finish
		heap.Fix(&r.slots, 0)

		t.Start, t.Finish, t.done = start, finish, true
		if t.Duration > 0 {
			r.Intervals = append(r.Intervals, Interval{Start: start, End: finish, Name: t.Name, Tag: t.Tag})
		}
		if finish > makespan {
			makespan = finish
		}
		doneCount++

		for _, d := range t.dependents {
			if finish > readyAt[d.id] {
				readyAt[d.id] = finish
			}
			indeg[d.id]--
			if indeg[d.id] == 0 {
				heap.Push(&ready, readyItem{at: readyAt[d.id], seq: d.id, task: d})
			}
		}
	}

	if doneCount != len(e.tasks) {
		return 0, fmt.Errorf("sim: dependency cycle: %d of %d tasks unreachable", len(e.tasks)-doneCount, len(e.tasks))
	}
	for _, r := range e.resources {
		sort.Slice(r.Intervals, func(i, j int) bool { return r.Intervals[i].Start < r.Intervals[j].Start })
	}
	return makespan, nil
}

// Makespan returns the latest finish across all tasks (0 before Run).
func (e *Engine) Makespan() float64 {
	var m float64
	for _, t := range e.tasks {
		if t.done && t.Finish > m {
			m = t.Finish
		}
	}
	return m
}

// ---- heaps ----

type slotHeap []float64

func (h slotHeap) Len() int            { return len(h) }
func (h slotHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h slotHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *slotHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type readyItem struct {
	at   float64
	seq  int
	task *Task
}

type readyHeap []readyItem

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h readyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x interface{}) { *h = append(*h, x.(readyItem)) }
func (h *readyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
