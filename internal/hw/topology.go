package hw

import "fmt"

// Node is a K-way Superchip node: K chips joined GPU-to-GPU by an NVLink
// fabric and CPU-to-CPU by the inter-socket link; each Superchip is one
// NUMA domain (§4.7 "NUMA binding").
type Node struct {
	Chip      Chip
	ChipCount int
	// GPUFabric joins GPUs inside the node (NVLink switch).
	GPUFabric LinkSpec
	// CrossNUMA is the path taken when a CPU process touches another
	// Superchip's memory; much slower than local C2C.
	CrossNUMA LinkSpec
}

// Cluster is a set of identical nodes joined by an inter-node network.
type Cluster struct {
	Node      Node
	NodeCount int
	Network   LinkSpec // Slingshot-11 in the paper's testbed
}

// NewGH200Node builds the paper's single-node testbeds: a node of n GH200
// Superchips (n=1 for §5.2 single-Superchip runs, n=4 for a 4-way node).
func NewGH200Node(n int) Node {
	chip := GH200()
	if n > 1 {
		// Multi-chip nodes in the testbed carry 240 GB DDR per chip.
		chip = GH200NVL2()
	}
	cross := NVLinkC2C()
	cross.Name = "cross-NUMA"
	cross.PeakBW *= NUMAMisbindBWFraction
	cross.LatencyS += NUMAMisbindExtraLatS
	return Node{Chip: chip, ChipCount: n, GPUFabric: NVLink4(), CrossNUMA: cross}
}

// NewGH200Cluster builds the paper's multi-node testbed: nodes of
// chipsPerNode GH200s connected by Slingshot-11 (§5.1).
func NewGH200Cluster(nodes, chipsPerNode int) Cluster {
	return Cluster{Node: NewGH200Node(chipsPerNode), NodeCount: nodes, Network: Slingshot11()}
}

// TotalChips returns the number of Superchips in the cluster.
func (c Cluster) TotalChips() int { return c.NodeCount * c.Node.ChipCount }

func (c Cluster) String() string {
	return fmt.Sprintf("%dx%d %s", c.NodeCount, c.Node.ChipCount, c.Node.Chip.Name)
}

// ClusterFor returns the testbed used for a given total Superchip count,
// following §5.1: single chips are the 480 GB-DDR GH200; multi-chip runs
// use GH200-NVL2 nodes (2 chips, 240 GB DDR each) joined by Slingshot.
func ClusterFor(totalChips int) Cluster {
	switch {
	case totalChips <= 1:
		return Cluster{Node: NewGH200Node(1), NodeCount: 1, Network: Slingshot11()}
	case totalChips == 2:
		return NewGH200Cluster(1, 2)
	default:
		return NewGH200Cluster(totalChips/2, 2)
	}
}

// DataParallelLink returns the effective link for bulk data-parallel
// collectives across n ranks in the cluster: intra-node fabric if all ranks
// share a node, otherwise the inter-node network bounds the ring.
func (c Cluster) DataParallelLink(n int) LinkSpec {
	if n <= c.Node.ChipCount && c.NodeCount >= 1 {
		return c.Node.GPUFabric
	}
	return c.Network
}
