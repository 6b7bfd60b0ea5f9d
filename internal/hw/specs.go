// Package hw models the hardware substrate the paper evaluates on: chips
// (GPU + CPU pairs), the links that join them (PCIe, NVLink-C2C, NVLink,
// Slingshot), nodes built from several Superchips, and NUMA affinity.
//
// Every constant in this package is taken from the paper (Table 1, §2.1,
// §3, Fig. 2, Fig. 7) or from the NVIDIA datasheet values the paper quotes.
// The simulator in internal/sim consumes these models; nothing else in the
// repository hard-codes hardware numbers.
package hw

import "fmt"

// Common byte sizes. Bandwidths in this package are bytes/second, times in
// seconds, compute rates in FLOP/s.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30

	GB = 1e9 // vendor-style decimal gigabyte, used for bandwidths
)

// GPUSpec describes one GPU die.
type GPUSpec struct {
	Name string
	// PeakFLOPS is the peak dense fp16/bf16 tensor-core throughput.
	PeakFLOPS float64
	// MemBytes is HBM capacity in bytes.
	MemBytes int64
	// MemBW is HBM bandwidth in bytes/s.
	MemBW float64
}

// CPUSpec describes one CPU socket.
type CPUSpec struct {
	Name  string
	Cores int
	// PeakFLOPS is the peak fp32 vector throughput across all cores.
	PeakFLOPS float64
	// MemBytes is DDR/LPDDR capacity in bytes.
	MemBytes int64
	// MemBW is DDR bandwidth in bytes/s.
	MemBW float64
	// SVE reports whether the core has ARM scalable vector extensions
	// (true on Grace). x86 chips report false and use AVX instead.
	SVE bool
}

// Chip is a CPU+GPU pair joined by a host link. On a Superchip the link is
// NVLink-C2C; on a classic node it is PCIe.
type Chip struct {
	Name string
	GPU  GPUSpec
	CPU  CPUSpec
	Link LinkSpec
}

// FLOPSRatio returns the GPU/CPU peak-FLOPS ratio the paper uses to explain
// why bucket repartitioning is needed (§4.3: ~330 on GH200 vs ~60 on DGX-2).
func (c Chip) FLOPSRatio() float64 { return c.GPU.PeakFLOPS / c.CPU.PeakFLOPS }

func (c Chip) String() string {
	return fmt.Sprintf("%s{gpu=%s cpu=%s link=%s}", c.Name, c.GPU.Name, c.CPU.Name, c.Link.Name)
}

// Presets. Table 1 of the paper:
//
//	Node Arch             DGX-2        DGX-A100      GH
//	CPU BW (GB/s)         100          150           500
//	C<->GPU BW (GB/s)     32           64            900
//	CPU Cores             24           64            72
//	CPU FLOPS (TFLOPS)    2.07         2.3           3.0
//	GPU FLOPS (TFLOPS)    125.0        312.0         990.0
//	GPU/CPU FLOPS         60.39        135.65        330.0
func GH200() Chip {
	return Chip{
		Name: "GH200",
		GPU: GPUSpec{
			Name:      "H100-96GB",
			PeakFLOPS: 990e12,
			MemBytes:  96 * GiB,
			MemBW:     4000 * GB,
		},
		CPU: CPUSpec{
			Name:      "Grace",
			Cores:     72,
			PeakFLOPS: 3.0e12,
			MemBytes:  480 * GiB,
			MemBW:     500 * GB,
			SVE:       true,
		},
		Link: NVLinkC2C(),
	}
}

// GH200NVL2 is the per-chip view of the paper's multi-node testbed: GH200
// NVL2 nodes carry 2x GH200 with 96 GB HBM and 240 GB DDR per Superchip
// (§5.1 "each containing 2xGH200 (96GB HBM, 240GB DDR)").
func GH200NVL2() Chip {
	c := GH200()
	c.Name = "GH200-NVL2"
	c.CPU.MemBytes = 240 * GiB
	return c
}

// GB200 is the next-generation Superchip the paper mentions (§2.1). Only
// used by forward-looking examples; evaluation uses GH200.
func GB200() Chip {
	return Chip{
		Name: "GB200",
		GPU: GPUSpec{
			Name:      "B200-192GB",
			PeakFLOPS: 2250e12,
			MemBytes:  192 * GiB,
			MemBW:     8000 * GB,
		},
		CPU: CPUSpec{
			Name:      "Grace",
			Cores:     72,
			PeakFLOPS: 3.0e12,
			MemBytes:  480 * GiB,
			MemBW:     500 * GB,
			SVE:       true,
		},
		Link: LinkSpec{Name: "NVLink-C2C-2", PeakBW: 900 * GB, LatencyS: 2e-6, KneeBytes: 64 * MiB, Duplex: true},
	}
}

// DGX2 is the per-GPU view of the DGX-2 node evaluated in ZeRO-Offload:
// Intel Xeon + V100, PCIe 3.0 x16.
func DGX2() Chip {
	return Chip{
		Name: "DGX-2",
		GPU: GPUSpec{
			Name:      "V100-32GB",
			PeakFLOPS: 125e12,
			MemBytes:  32 * GiB,
			MemBW:     900 * GB,
		},
		CPU: CPUSpec{
			Name:      "Xeon-8168",
			Cores:     24,
			PeakFLOPS: 2.07e12,
			MemBytes:  768 * GiB,
			MemBW:     100 * GB,
		},
		Link: PCIe3x16(),
	}
}

// DGXA100 is the per-GPU view of the DGX-A100 node (AMD Rome + A100,
// PCIe 4.0 x16) used for LLaMA training.
func DGXA100() Chip {
	return Chip{
		Name: "DGX-A100",
		GPU: GPUSpec{
			Name:      "A100-80GB",
			PeakFLOPS: 312e12,
			MemBytes:  80 * GiB,
			MemBW:     2000 * GB,
		},
		CPU: CPUSpec{
			Name:      "EPYC-7742",
			Cores:     64,
			PeakFLOPS: 2.3e12,
			MemBytes:  1024 * GiB,
			MemBW:     150 * GB,
		},
		Link: PCIe4x16(),
	}
}

// Registry returns the named chips compared in Table 1, in paper order.
func Registry() []Chip { return []Chip{DGX2(), DGXA100(), GH200()} }

// ByName looks a preset up by its Name field.
func ByName(name string) (Chip, error) {
	for _, c := range []Chip{DGX2(), DGXA100(), GH200(), GH200NVL2(), GB200()} {
		if c.Name == name {
			return c, nil
		}
	}
	return Chip{}, fmt.Errorf("hw: unknown chip %q", name)
}
