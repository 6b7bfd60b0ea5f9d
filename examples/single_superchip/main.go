// Single-Superchip sizing: compare SuperOffload against every baseline on
// one GH200 across model sizes — the paper's Fig. 10 scenario, via the
// public planning API.
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

// run plans every system at each model size and prints the table to w.
func run(w io.Writer) error {
	for _, name := range []string{"3B", "5B", "13B", "25B"} {
		results, err := superoffload.Compare(superoffload.PlanRequest{
			Model: name, Chips: 1, GlobalBatch: 8, Seq: 1024,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s on a single GH200 (batch 8):\n", name)
		for _, r := range results {
			if !r.Fits {
				fmt.Fprintf(w, "  %-15s OOM (%s)\n", r.System, r.OOMReason)
				continue
			}
			fmt.Fprintf(w, "  %-15s %6.1f TFLOPS  (GPU idle %4.1f%%, micro=%d)\n",
				r.System, r.TFLOPS, 100*r.GPUIdleFrac, r.MicroBatch)
		}
	}
	return nil
}
