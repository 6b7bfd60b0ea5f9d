package stv

import (
	"math"
	"testing"

	"superoffload/internal/optim"
)

// TestVerdictReadsSumOfSquares: Resolve turns the pending step's sum of
// squares into its action — NaN and +Inf skip, a finite sum over the
// clip bound clips, one within it commits — and updates the loss scaler
// exactly once, on that same flag.
func TestVerdictReadsSumOfSquares(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sumsq float64
		want  Action
	}{
		{"NaN", math.NaN(), Skip},
		{"+Inf", math.Inf(1), Skip},
		{"finite, over the bound", 4, Clip}, // norm 2 against ClipNorm 1
		{"finite, within the bound", 0.25, Commit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := optim.NewLossScaler()
			v := NewVerdict(Config{Adam: optim.DefaultConfig(), ClipNorm: 1, Scaler: sc})
			adam := v.BeginStep()
			v.Launched(adam, tc.sumsq)
			res := v.Resolve()
			if res.Action != tc.want {
				t.Fatalf("action %v, want %v", res.Action, tc.want)
			}
			switch tc.want {
			case Clip:
				if res.ClipScale != 0.5 || res.Adam != adam {
					t.Errorf("clip scale %v under %+v, want 0.5 under %+v", res.ClipScale, res.Adam, adam)
				}
			case Commit:
				if res.ClipScale != 1 {
					t.Errorf("commit clip scale %v, want 1", res.ClipScale)
				}
			}
			want := optim.NewLossScaler()
			want.Update(tc.want == Skip)
			if *sc != *want {
				t.Errorf("scaler %+v, want one update to %+v", *sc, *want)
			}
			st := v.Stats()
			if st.Steps != 1 || st.Commits+st.Rollbacks() != 1 || (tc.want == Skip) != (st.SkipRolls == 1) {
				t.Errorf("stats %+v", st)
			}
			if again := v.Resolve(); again.Action != None || *sc != *want {
				t.Errorf("second Resolve: %v, scaler %+v", again.Action, *sc)
			}
		})
	}
}
