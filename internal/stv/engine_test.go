package stv_test

import (
	"superoffload/internal/act"
	"superoffload/internal/dp"
	"superoffload/internal/nn"
	"superoffload/internal/stv"
)

// The training tests of this package run the engine as superoffload.Init
// builds it: internal/dp at (1,1,1), whose one rank owns every bucket.

// config is the engine's options plus its one rank's tiers: Store and
// Act, when non-nil, are the bucket and activation stores the rank is
// built over (the engine closes them).
type config struct {
	stv.Config
	Store stv.BucketStore
	Act   *act.Store
}

// engine is the (1,1,1) engine with the model it trains.
type engine struct {
	*dp.Engine
	Model *nn.GPT
}

// newEngine builds the engine over m, panicking where dp.New refuses.
func newEngine(m *nn.GPT, cfg config) *engine {
	dc := dp.Config{Config: cfg.Config}
	if cfg.Store != nil {
		dc.NewStore = func(int) (stv.BucketStore, error) { return cfg.Store, nil }
	}
	if cfg.Act != nil {
		dc.NewActStore = func(int) (*act.Store, error) { return cfg.Act, nil }
	}
	e, err := dp.New(m, dc)
	if err != nil {
		panic(err)
	}
	return &engine{Engine: e, Model: m}
}
