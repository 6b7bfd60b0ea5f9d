package experiments

import (
	"fmt"
	"math"

	"superoffload/internal/data"
	"superoffload/internal/dp"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// Fig. 14 has two reproductions, per the DESIGN.md substitution table:
//
//  1. Fig14Real trains a real (small) GPT with the STV runtime on the
//     synthetic corpus and reports the actual loss curve and rollback
//     counts, plus a bit-exactness check against the synchronous schedule.
//
//  2. Fig14Envelope replays the paper's 175B/80,000-iteration setting
//     through a calibrated gradient-norm process: the global gradient norm
//     decays from its warm-up peak and fluctuates log-normally; iterations
//     whose norm exceeds the clip threshold (or that overflow in fp16)
//     roll back. The paper's observations — frequent rollbacks before
//     iteration ~1000, then ~0.12% — emerge from the decay, not from
//     hard-coding.

// Fig14RealResult summarizes the real STV training run.
type Fig14RealResult struct {
	Losses    []float64
	Stats     stv.Stats
	ExactSTE  bool // STV weights bit-identical to the STE reference run
	FirstLoss float64
	LastLoss  float64
}

// Fig14Real trains a 2-layer GPT for steps iterations under STV and under
// STE on identical data, verifying learning and exactness.
func Fig14Real(steps int) Fig14RealResult {
	if steps <= 0 {
		steps = 150
	}
	run := func(mode stv.Mode) (*dp.Engine, []float64) {
		cfg := model.Config{Name: "fig14", Layers: 2, Hidden: 32, Heads: 2, Vocab: 64}
		m := nn.NewGPT(cfg, 16, tensor.NewRNG(99))
		a := optim.DefaultConfig()
		a.LR = 3e-3
		// Clip threshold just above this workload's typical gradient
		// norm (~3), so rollbacks happen — and are validated exact —
		// without firing on every step.
		tr, err := dp.New(m, dp.Config{Config: stv.Config{
			Adam: a, ClipNorm: 3.5,
			BucketElems: 20000, Mode: mode, Scaler: optim.NewLossScaler(),
		}})
		if err != nil {
			panic(err)
		}
		return tr, trainSteps(tr, steps, windows(data.NewCorpus(64, 7), 2, 8, 1, 1))
	}
	stvTr, losses := run(stv.STV)
	steTr, _ := run(stv.STE)

	exact := true
	a, b := stvTr.MasterWeights(), steTr.MasterWeights()
	for i := range a {
		if a[i] != b[i] {
			exact = false
			break
		}
	}
	res := Fig14RealResult{Losses: losses, Stats: stvTr.Stats(), ExactSTE: exact}
	stvTr.Close()
	steTr.Close()
	if len(losses) > 10 {
		res.FirstLoss = mean(losses[:10])
		res.LastLoss = mean(losses[len(losses)-10:])
	}
	return res
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig14EnvelopeResult summarizes the 80k-iteration replay.
type Fig14EnvelopeResult struct {
	Iterations    int
	WarmupRolls   int // rollbacks in iterations 1..1000
	LateRolls     int // rollbacks after iteration 1000
	LateRate      float64
	RollbackCostS float64 // total rollback overhead at 2s per event (§5.7)
	// LossCurve samples the synthetic pre-training loss every
	// SampleEvery iterations.
	LossCurve   []float64
	SampleEvery int
}

// Envelope process constants, calibrated to the §5.7 narrative: the global
// gradient norm starts ~6x above its steady level during warm-up and
// decays with a ~300-iteration time constant; steady-state fluctuations
// are log-normal with σ chosen so the tail probability of exceeding the
// clip threshold is ~1e-3 (93 events / 79,000 iterations = 0.12%).
const (
	envelopeWarmupBoost = 6.0
	envelopeWarmupTau   = 300.0
	envelopeSigma       = 0.23
	envelopeSteadyFrac  = 0.5 // steady norm is half the clip threshold
	rollbackCostSeconds = 2.0 // measured 175B rollback cost (§5.7)
)

// Fig14Envelope replays iters iterations of the 175B pre-train.
func Fig14Envelope(iters int) Fig14EnvelopeResult {
	if iters <= 0 {
		iters = 80000
	}
	rng := tensor.NewRNG(20240925)
	clip := 1.0
	res := Fig14EnvelopeResult{Iterations: iters, SampleEvery: 200}
	for t := 1; t <= iters; t++ {
		meanNorm := clip * envelopeSteadyFrac * (1 + envelopeWarmupBoost*math.Exp(-float64(t)/envelopeWarmupTau))
		z := rng.NormFloat32()
		norm := meanNorm * math.Exp(envelopeSigma*float64(z))
		// fp16 overflow events concentrate in early loss-scale
		// settling; afterwards the scaler keeps headroom.
		overflow := rng.Float64() < 0.02*math.Exp(-float64(t)/200.0)
		if norm > clip || overflow {
			if t <= 1000 {
				res.WarmupRolls++
			} else {
				res.LateRolls++
			}
		}
		if t%res.SampleEvery == 0 {
			res.LossCurve = append(res.LossCurve, syntheticLoss(t))
		}
	}
	if iters > 1000 {
		res.LateRate = float64(res.LateRolls) / float64(iters-1000)
	}
	res.RollbackCostS = rollbackCostSeconds * float64(res.WarmupRolls+res.LateRolls)
	return res
}

// syntheticLoss is the standard power-law pre-training loss envelope for a
// GPT-scale model (L∞ + amplitude·t^-α), used only for plotting shape.
func syntheticLoss(t int) float64 {
	return 1.9 + 9.1*math.Pow(float64(t), -0.35)
}

// RenderFig14 formats both reproductions.
func RenderFig14(real Fig14RealResult, env Fig14EnvelopeResult) string {
	out := "Fig. 14: STV training loss and rollback occurrences\n\n"
	out += fmt.Sprintf("Real STV training (2-layer GPT, %d steps):\n", len(real.Losses))
	out += fmt.Sprintf("  loss %.3f -> %.3f | rollbacks: %d clip, %d skip | bit-exact vs STE: %v\n\n",
		real.FirstLoss, real.LastLoss, real.Stats.ClipRolls, real.Stats.SkipRolls, real.ExactSTE)
	out += fmt.Sprintf("175B envelope replay (%d iterations):\n", env.Iterations)
	out += fmt.Sprintf("  warm-up rollbacks (steps 1-1000): %d\n", env.WarmupRolls)
	out += fmt.Sprintf("  late rollbacks: %d (%.2f%% of post-warm-up steps; paper: 93 = 0.12%%)\n",
		env.LateRolls, 100*env.LateRate)
	out += fmt.Sprintf("  post-warm-up rollback overhead at %.0fs each: %s (paper: <200s over 79k steps)\n",
		rollbackCostSeconds, seconds(rollbackCostSeconds*float64(env.LateRolls)))
	if len(env.LossCurve) >= 2 {
		out += fmt.Sprintf("  loss: %.3f @start -> %.3f @end\n",
			env.LossCurve[0], env.LossCurve[len(env.LossCurve)-1])
	}
	return out
}
