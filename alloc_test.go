package superoffload

import "testing"

// TestStepAllocations holds one steady-state step to a fixed number of
// allocations on the engine shapes the repo's benchmark does not run
// (BENCHMARK.json bounds alloc_kb_per_step on its own six). The count is
// a property of the code, not of the machine, so an allocation that
// creeps into the schedule, a store or a collective fails here and not
// in a timing. The two data-parallel rows are DESIGN contract 7: a live
// tracer costs a bounded number of allocations a step, and no tracer
// costs what the step cost before the tracing layer existed.
func TestStepAllocations(t *testing.T) {
	// slack covers the pool submissions and channel waits whose
	// allocations follow the scheduler rather than the code.
	const slack = 16
	tracer := NewTracer()
	for _, tc := range []struct {
		name        string
		layers      int
		bucketElems int
		tune        func(*OptimizerConfig) // nil: the defaults
		mesh        MeshConfig             // zero: the single-rank Init
		allocs      float64
	}{
		{"synchronous", 2, 100000, func(c *OptimizerConfig) { c.Synchronous = true }, MeshConfig{}, 2},
		{"act-dram", 5, 100000, func(c *OptimizerConfig) {
			c.Activation = ActivationConfig{Offload: "dram", ResidentLayers: 2}
		}, MeshConfig{}, 20},
		{"sp-2", 2, 20000, nil, MeshConfig{SeqRanks: 2}, 20},
		{"dp-2", 2, 20000, nil, MeshConfig{Ranks: 2}, 17},
		{"dp-2-traced", 2, 20000, func(c *OptimizerConfig) { c.Tracer = tracer }, MeshConfig{Ranks: 2}, 31},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewModel(ModelConfig{Layers: tc.layers, Hidden: 64, Heads: 4, Vocab: 128, MaxSeq: 16}, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultOptimizer()
			cfg.ClipNorm, cfg.BucketElems = 10, tc.bucketElems
			if tc.tune != nil {
				tc.tune(&cfg)
			}
			var eng *Engine
			if tc.mesh == (MeshConfig{}) {
				eng, err = Init(m, cfg)
			} else {
				eng, err = InitMesh(m, cfg, tc.mesh)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			batch := NewCorpus(128, 2).NextBatch(2, 16)
			step := func() {
				if _, err := eng.Step(batch); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm: arena grown, snapshots and fp16 buffers in place
			events := tracer.Len()
			if got := testing.AllocsPerRun(10, step); got > tc.allocs+slack {
				t.Errorf("%v allocs/step, want <= %v+%d", got, tc.allocs, slack)
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			if traced := cfg.Tracer != nil; traced != (tracer.Len() > events) {
				t.Errorf("tracer attached = %v, but it recorded %d events", traced, tracer.Len()-events)
			}
		})
	}
}

// TestSteadyStepAllocations: a steady-state Step through the facade at
// 1×1×1 (Init) and 2×1×1 allocates nothing. The coordinator reuses its
// per-rank micro-batch lists, shard buffers, report slice and op lists,
// and a delegate that owns a bucket folds its contribution straight from
// the replayed gradient instead of staging a copy.
func TestSteadyStepAllocations(t *testing.T) {
	for _, mesh := range []MeshConfig{{}, {Ranks: 2}} {
		m, err := NewModel(ModelConfig{Layers: 2, Hidden: 64, Heads: 4, Vocab: 128, MaxSeq: 16}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultOptimizer()
		cfg.ClipNorm, cfg.BucketElems = 10, 20000
		eng, err := InitMesh(m, cfg, mesh)
		if err != nil {
			t.Fatal(err)
		}
		batch := NewCorpus(128, 2).NextBatch(2, 16)
		step := func() {
			if _, err := eng.Step(batch); err != nil {
				t.Fatal(err)
			}
		}
		step()
		step()
		if got := testing.AllocsPerRun(20, step); got > 0 {
			t.Errorf("%d×%d×%d: %v allocs/step, want 0", eng.Ranks(), eng.SeqRanks(), eng.PipeRanks(), got)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
