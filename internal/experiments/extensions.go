package experiments

import (
	"fmt"

	"superoffload/internal/baselines"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/sched"
)

// ExtNVMe is the repository's extension experiment: ZeRO-Infinity with its
// NVMe tier enabled (the full original design, which the paper's
// evaluation disables for fair comparison). It reports the capacity the
// flash tier unlocks on a single Superchip and the throughput price paid
// where the DDR-bound variant also fits.
func ExtNVMe() string {
	cl := hw.ClusterFor(1)
	nvme := baselines.ZeROInfinityNVMe
	ddr := baselines.ZeROInfinity

	maxNVMe := sched.MaxTrainable(nvme, cl, 8, 1024)
	maxDDR := sched.MaxTrainable(ddr, cl, 8, 1024)

	t := newTable("Model", "ZeRO-Infinity (DDR) TFLOPS", "ZeRO-Infinity+NVMe TFLOPS")
	for _, name := range []string{"5B", "13B", "25B", "50B", "150B", "200B"} {
		m, err := model.ByName(name)
		if err != nil {
			continue
		}
		w := sched.Workload{Cluster: cl, Model: m, GlobalBatch: 8, Seq: 1024}
		cell := func(s sched.System) string {
			r := s.Plan(w)
			if !r.Fits {
				return "OOM"
			}
			return fmt.Sprintf("%.1f", r.TFLOPS)
		}
		t.AddStrings(name, cell(ddr), cell(nvme))
	}
	return fmt.Sprintf("Extension: ZeRO-Infinity NVMe tier on a single Superchip\n"+
		"max trainable: DDR-bound %s, NVMe-backed %s\n%s",
		maxDDR.Name, maxNVMe.Name, t.String())
}
