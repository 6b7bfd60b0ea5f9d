package hw

import "fmt"

// LinkSpec models a point-to-point interconnect. Effective bandwidth is a
// function of transfer size: small transfers are latency-bound and saturate
// the link only past a knee (Fig. 7 of the paper shows the C2C link
// saturating at roughly 64 MB tensors).
//
// The curve is the classic latency/bandwidth pipe model
//
//	time(s) = latency + s / peak
//	bw(s)   = s / time(s) = peak * s/(s + latency*peak)
//
// which matches the measured shape in Fig. 7: ~50 GB/s at sub-MB sizes,
// climbing to the saturation plateau around the knee. KneeBytes documents
// the half-saturation point implied by latency*peak and is kept explicit so
// schedulers can pick bucket sizes from the spec without reverse-engineering
// the curve.
type LinkSpec struct {
	Name string
	// PeakBW is the peak uni-directional bandwidth in bytes/s.
	PeakBW float64
	// LatencyS is the per-transfer setup latency in seconds (driver +
	// DMA engine programming). It is what bends the curve at small sizes.
	LatencyS float64
	// KneeBytes is the transfer size at which effective bandwidth reaches
	// half of peak; documentation of the curve shape.
	KneeBytes int64
	// Duplex links carry traffic in both directions at full rate
	// simultaneously (NVLink-C2C); half-duplex links (classic shared PCIe
	// topologies in this model) serialize.
	Duplex bool
	// AsymmetryD2H scales the peak for device-to-host transfers relative
	// to host-to-device. Fig. 7 measures GPU->CPU slightly faster than
	// CPU->GPU on GH200; 1.0 means symmetric.
	AsymmetryD2H float64
}

// Direction of a transfer across a host link.
type Direction int

const (
	// HostToDevice moves bytes from CPU memory to GPU memory.
	HostToDevice Direction = iota
	// DeviceToHost moves bytes from GPU memory to CPU memory.
	DeviceToHost
)

func (d Direction) String() string {
	if d == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// Memory pinning determines whether the DMA engine can stream directly
// (pinned) or must bounce through a pageable staging buffer (unpinned).
// §4.5 of the paper observes that the transfer-then-cast path allocates an
// unpinned temporary on the Grace CPU and is "significantly slower than DMA
// transfer"; UnpinnedPenalty in calibration.go quantifies that.
type Pinning int

const (
	// Pinned transfers stream at DMA rate.
	Pinned Pinning = iota
	// Unpinned transfers bounce through a staging buffer at a fraction
	// of link rate (the Grace transfer-then-cast pattern, §4.5).
	Unpinned
	// Pageable transfers are naive framework copies of pageable host
	// memory (no staging pool at all): page faults serialize the copy at
	// PageableBW regardless of link speed. FSDP's CPU-offload path
	// behaves this way.
	Pageable
)

// PageableBW is the absolute throughput of naive pageable host copies.
const PageableBW = 6 * GB

func (p Pinning) String() string {
	switch p {
	case Pinned:
		return "pinned"
	case Unpinned:
		return "unpinned"
	}
	return "pageable"
}

func (l LinkSpec) String() string {
	return fmt.Sprintf("%s(%.0fGB/s)", l.Name, l.PeakBW/GB)
}

// peakFor returns the direction-adjusted peak bandwidth.
func (l LinkSpec) peakFor(dir Direction) float64 {
	if dir == DeviceToHost && l.AsymmetryD2H > 0 {
		return l.PeakBW * l.AsymmetryD2H
	}
	return l.PeakBW
}

// TransferTime returns the wall-clock seconds to move size bytes in the
// given direction with the given pinning.
func (l LinkSpec) TransferTime(size int64, dir Direction, pin Pinning) float64 {
	if size <= 0 {
		return 0
	}
	peak := l.peakFor(dir)
	lat := l.LatencyS
	switch pin {
	case Unpinned:
		// Bounce through a staging buffer: the copy is performed by
		// CPU cores at a fraction of link rate and pays an
		// allocation latency (§4.5).
		peak *= UnpinnedBWFraction
		lat += UnpinnedSetupS
	case Pageable:
		if peak > PageableBW {
			peak = PageableBW
		}
		lat += UnpinnedSetupS
	}
	return lat + float64(size)/peak
}

// EffectiveBW returns achieved bytes/s for a transfer of size bytes — the
// quantity plotted in Fig. 7.
func (l LinkSpec) EffectiveBW(size int64, dir Direction, pin Pinning) float64 {
	t := l.TransferTime(size, dir, pin)
	if t == 0 {
		return 0
	}
	return float64(size) / t
}

// NVLinkC2C is the GH200 Grace-Hopper chip-to-chip interconnect: 900 GB/s
// total, 450 GB/s per direction (§4.2 uses the 450 GB/s uni-directional
// figure for the weight-flow analysis). Latency is set so the effective
// curve matches Fig. 7: ~100 GB/s at 1 MB, half-saturation in the tens of
// MB, plateau ~420 GB/s by 64 MB.
func NVLinkC2C() LinkSpec {
	return LinkSpec{
		Name:         "NVLink-C2C",
		PeakBW:       450 * GB,
		LatencyS:     10e-6,
		KneeBytes:    int64(10e-6 * 450e9), // latency*peak = 4.5 MB half-sat
		Duplex:       true,
		AsymmetryD2H: 1.07, // Fig. 7: GPU->CPU slightly above CPU->GPU
	}
}

// PCIe3x16 is the DGX-2 host link (32 GB/s).
func PCIe3x16() LinkSpec {
	return LinkSpec{Name: "PCIe3x16", PeakBW: 32 * GB, LatencyS: 15e-6, KneeBytes: int64(15e-6 * 32e9), AsymmetryD2H: 1.0}
}

// PCIe4x16 is the DGX-A100 host link (64 GB/s).
func PCIe4x16() LinkSpec {
	return LinkSpec{Name: "PCIe4x16", PeakBW: 64 * GB, LatencyS: 12e-6, KneeBytes: int64(12e-6 * 64e9), AsymmetryD2H: 1.0}
}

// NVLink4 is the GPU-to-GPU fabric inside a GH200 node (NVLink switch,
// 900 GB/s per GPU aggregate; we expose the per-peer effective rate).
func NVLink4() LinkSpec {
	return LinkSpec{Name: "NVLink4", PeakBW: 450 * GB, LatencyS: 5e-6, KneeBytes: int64(5e-6 * 450e9), Duplex: true, AsymmetryD2H: 1.0}
}

// Slingshot11 is the HPE/Cray 200 Gbps inter-node interconnect from the
// paper's multi-node testbed (§5.1): 200 Gbps = 25 GB/s per direction.
func Slingshot11() LinkSpec {
	return LinkSpec{Name: "Slingshot-11", PeakBW: 25 * GB, LatencyS: 2e-6, KneeBytes: int64(2e-6 * 25e9), Duplex: true, AsymmetryD2H: 1.0}
}

// BandwidthPoint is one sample of the Fig. 7 sweep.
type BandwidthPoint struct {
	SizeBytes int64
	H2DBps    float64
	D2HBps    float64
}

// BandwidthSweep reproduces the Fig. 7 measurement: effective bandwidth for
// pinned transfers of 0.25 MB .. maxBytes, doubling each step.
func (l LinkSpec) BandwidthSweep(maxBytes int64) []BandwidthPoint {
	var pts []BandwidthPoint
	for s := int64(256 * KiB); s <= maxBytes; s *= 2 {
		pts = append(pts, BandwidthPoint{
			SizeBytes: s,
			H2DBps:    l.EffectiveBW(s, HostToDevice, Pinned),
			D2HBps:    l.EffectiveBW(s, DeviceToHost, Pinned),
		})
	}
	return pts
}

// CollectiveKind enumerates the collectives used by the parallel schedules.
type CollectiveKind int

const (
	AllReduce CollectiveKind = iota
	AllGather
	ReduceScatter
	AllToAll
	Broadcast
)

func (k CollectiveKind) String() string {
	switch k {
	case AllReduce:
		return "all-reduce"
	case AllGather:
		return "all-gather"
	case ReduceScatter:
		return "reduce-scatter"
	case AllToAll:
		return "all-to-all"
	case Broadcast:
		return "broadcast"
	}
	return "unknown"
}

// CollectiveTime estimates ring/pairwise collective time for n ranks moving
// size bytes of payload per rank over the given link, using the standard
// ring-algorithm volume factors:
//
//	all-gather / reduce-scatter: (n-1)/n * size per rank
//	all-reduce:                  2*(n-1)/n * size per rank
//	all-to-all:                  (n-1)/n * size per rank (pairwise)
//	broadcast:                   size per rank
func CollectiveTime(k CollectiveKind, n int, size int64, link LinkSpec) float64 {
	if n <= 1 || size <= 0 {
		return 0
	}
	frac := float64(n-1) / float64(n)
	var vol float64
	switch k {
	case AllGather, ReduceScatter, AllToAll:
		vol = frac * float64(size)
	case AllReduce:
		vol = 2 * frac * float64(size)
	case Broadcast:
		vol = float64(size)
	}
	// Chunked pipeline: per-chunk latency amortized over ring steps.
	steps := float64(n - 1)
	if k == AllReduce {
		steps = 2 * float64(n-1)
	}
	return steps*link.LatencyS + vol/link.PeakBW
}
