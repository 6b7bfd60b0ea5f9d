package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPageableTierIsSlowest(t *testing.T) {
	l := NVLinkC2C()
	size := int64(256 * MiB)
	pinned := l.TransferTime(size, HostToDevice, Pinned)
	unpinned := l.TransferTime(size, HostToDevice, Unpinned)
	pageable := l.TransferTime(size, HostToDevice, Pageable)
	if !(pinned < unpinned && unpinned < pageable) {
		t.Errorf("tier ordering violated: pinned %.4f unpinned %.4f pageable %.4f",
			pinned, unpinned, pageable)
	}
	// Pageable is capped at PageableBW regardless of link speed.
	wantMin := float64(size) / PageableBW
	if pageable < wantMin {
		t.Errorf("pageable faster than the page-fault cap: %.4f < %.4f", pageable, wantMin)
	}
}

func TestPageableCapOnSlowLink(t *testing.T) {
	// On a link already slower than PageableBW, pageable adds latency
	// but cannot raise bandwidth.
	l := PCIe3x16() // 32 GB/s > 6 GB/s cap still applies
	fast := l.TransferTime(64*MiB, HostToDevice, Pinned)
	slow := l.TransferTime(64*MiB, HostToDevice, Pageable)
	if slow <= fast {
		t.Error("pageable should be slower even on PCIe")
	}
}

func TestPinningStrings(t *testing.T) {
	if Pageable.String() != "pageable" {
		t.Errorf("pageable string: %s", Pageable.String())
	}
}

func TestCollectiveTimeMonotoneInSize(t *testing.T) {
	link := Slingshot11()
	f := func(a, b uint32) bool {
		sa := int64(a%(1<<26)) + 1
		sb := sa + int64(b%(1<<26)) + 1
		return CollectiveTime(AllReduce, 8, sa, link) <= CollectiveTime(AllReduce, 8, sb, link)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCollectiveVolumeFractions(t *testing.T) {
	// As n→∞ the per-rank all-gather volume approaches size/peak.
	link := NVLink4()
	size := int64(4 * GiB)
	t64 := CollectiveTime(AllGather, 64, size, link)
	want := float64(size) / link.PeakBW
	if math.Abs(t64-want)/want > 0.05 {
		t.Errorf("64-rank all-gather %.4f, asymptote %.4f", t64, want)
	}
}

func TestGB200IsFasterThanGH200(t *testing.T) {
	if GB200().GPU.PeakFLOPS <= GH200().GPU.PeakFLOPS {
		t.Error("GB200 should out-FLOP GH200")
	}
	if GB200().CPU.SVE != true {
		t.Error("GB200 keeps the Grace CPU")
	}
}

func TestLinkStringsAndChipString(t *testing.T) {
	if NVLinkC2C().String() == "" || GH200().String() == "" {
		t.Error("stringers empty")
	}
}
