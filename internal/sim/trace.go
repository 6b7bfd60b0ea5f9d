package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Utilization summarizes one resource's activity over a window.
type Utilization struct {
	Resource string
	Busy     float64 // total busy seconds
	Window   float64 // observation window seconds
	ByTag    map[Tag]float64
}

// Fraction is busy time over the window (0 when the window is empty).
func (u Utilization) Fraction() float64 {
	if u.Window <= 0 {
		return 0
	}
	f := u.Busy / u.Window
	if f > 1 {
		f = 1
	}
	return f
}

// Utilization computes busy statistics for one resource over [0, window].
// Overlapping intervals (capacity > 1) are merged for the busy total so a
// pool never reports more than 100%.
func (e *Engine) Utilization(resource string, window float64) Utilization {
	return e.UtilizationBetween(resource, 0, window)
}

// UtilizationBetween computes busy statistics over [from, to] — used to
// isolate steady-state iterations from pipeline warm-up.
func (e *Engine) UtilizationBetween(resource string, from, to float64) Utilization {
	window := to - from
	u := Utilization{Resource: resource, Window: window, ByTag: map[Tag]float64{}}
	r := e.resources[resource]
	if r == nil || window <= 0 {
		return u
	}
	// Merge intervals clipped to the window.
	type span struct{ s, e float64 }
	var spans []span
	for _, iv := range r.Intervals {
		s, en := iv.Start, iv.End
		if s < from {
			s = from
		}
		if en > to {
			en = to
		}
		if s >= en {
			continue
		}
		spans = append(spans, span{s, en})
		u.ByTag[iv.Tag] += en - s
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].s < spans[j].s })
	var busy, curS, curE float64
	curS, curE = -1, -1
	for _, sp := range spans {
		if sp.s > curE {
			if curE > curS {
				busy += curE - curS
			}
			curS, curE = sp.s, sp.e
		} else if sp.e > curE {
			curE = sp.e
		}
	}
	if curE > curS {
		busy += curE - curS
	}
	u.Busy = busy
	return u
}

// Gantt renders an ASCII timeline of the engine's resources, width columns
// wide — the textual analogue of the paper's Fig. 3 / Fig. 8 schedules.
func (e *Engine) Gantt(width int) string {
	if width < 20 {
		width = 20
	}
	makespan := e.Makespan()
	if makespan <= 0 {
		return "(empty schedule)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %.4fs, 1 col = %.5fs\n", makespan, makespan/float64(width))
	for _, name := range e.order {
		r := e.resources[name]
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range r.Intervals {
			s := int(iv.Start / makespan * float64(width))
			en := int(iv.End / makespan * float64(width))
			if en <= s {
				en = s + 1
			}
			if en > width {
				en = width
			}
			ch := glyphFor(iv.Tag)
			for i := s; i < en; i++ {
				row[i] = ch
			}
		}
		u := e.Utilization(name, makespan)
		fmt.Fprintf(&b, "%-10s |%s| %5.1f%%\n", name, string(row), 100*u.Fraction())
	}
	b.WriteString("legend: C=compute O=optimizer T=transfer X=cast M=collective V=validate .=idle\n")
	return b.String()
}

func glyphFor(t Tag) byte {
	switch t {
	case TagCompute:
		return 'C'
	case TagOptim:
		return 'O'
	case TagTransfer:
		return 'T'
	case TagCast:
		return 'X'
	case TagComm:
		return 'M'
	case TagValidate:
		return 'V'
	}
	return '#'
}
