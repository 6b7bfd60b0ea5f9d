package hw

import "testing"

// TestActWindow pins the one activation-window rule: raise to the floor,
// cap at the depth (a model shallower than the floor keeps every layer).
func TestActWindow(t *testing.T) {
	for _, c := range []struct{ resident, layers, want int }{
		{0, 12, ActMinResidentLayers},
		{-3, 12, ActMinResidentLayers},
		{5, 12, 5},
		{20, 12, 12},
		{0, 1, 1},
		{4, 0, 0},
	} {
		if got := ActWindow(c.resident, c.layers); got != c.want {
			t.Errorf("ActWindow(%d, %d) = %d, want %d", c.resident, c.layers, got, c.want)
		}
	}
}
