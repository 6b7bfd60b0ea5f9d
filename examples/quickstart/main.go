// Quickstart: the paper's Fig. 1 in runnable form — enable SuperOffload
// around a standard training loop with a few lines.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"superoffload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run trains the demo model and writes its progress to w.
func run(w io.Writer) error {
	// Standard pipeline: build a model, pick an optimizer...
	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: 2, Hidden: 64, Vocab: 128, MaxSeq: 32,
	}, 7)
	if err != nil {
		return err
	}
	optimizer := superoffload.DefaultOptimizer()
	// Tiny demo models have gradient norms ~3; keep clipping the rare
	// event it is in real training so speculation usually commits.
	optimizer.ClipNorm = 5.0

	// ...and wrap them: `model = SuperOffload.init(model, optimizer)`.
	engine, err := superoffload.Init(model, optimizer)
	if err != nil {
		return err
	}
	defer engine.Close()

	corpus := superoffload.NewCorpus(128, 11)
	fmt.Fprintf(w, "training %d parameters in %d offload buckets\n",
		model.NumParams(), engine.NumBuckets())
	for step := 1; step <= 100; step++ {
		batch := corpus.NextBatch(4, 16)
		loss, err := engine.Step(batch) // fwd + bwd + speculative optimizer
		if err != nil {
			return err
		}
		if step%20 == 0 {
			fmt.Fprintf(w, "step %3d  loss %.4f\n", step, loss)
		}
	}
	if err := engine.Flush(); err != nil {
		return err
	}
	st := engine.Stats()
	fmt.Fprintf(w, "validation: %d commits, %d rollbacks (all exact)\n",
		st.Commits, st.Rollbacks())
	return engine.Close()
}
