package hw

// Multi-path flash modeling (MLP-Offload). The single-lane NVMeSpec
// serializes every transfer on one device timeline; IOPaths splits the
// same tier into N independently scheduled paths so fetches and
// write-behind flushes can proceed concurrently on different lanes
// (stv.MLPStore writes each record to the least-loaded lane).

// IOPaths is the flash tier as a set of independently scheduled NVMe
// paths. Index order is the dispatch tie-break order and is significant.
type IOPaths []NVMeSpec

// SplitPaths divides one NVMe array into n equal, independently
// scheduled lanes: each lane carries 1/n of the array's bandwidth and
// capacity at the array's latency, so total hardware is conserved (every
// lane pays the latency independently).
func SplitPaths(spec NVMeSpec, n int) IOPaths {
	if n < 1 {
		n = 1
	}
	lane := spec
	lane.ReadBW = spec.ReadBW / float64(n)
	lane.WriteBW = spec.WriteBW / float64(n)
	lane.Capacity = spec.Capacity / int64(n)
	out := make(IOPaths, n)
	for i := range out {
		out[i] = lane
	}
	return out
}

// NodeIOPaths splits the node NVMe RAID into n independently scheduled
// lanes — the facade's -io-paths model. NodeIOPaths(1) is the RAID as a
// single path, matching the legacy single-lane store's spec.
func NodeIOPaths(n int) IOPaths { return SplitPaths(NodeNVMe(), n) }
