package dp

import (
	"fmt"
	"testing"
)

// TestLanesInARank: at (1,1,1) the rank's pass splits its four batch rows
// over 1, 2, 3 and 4 lanes with the bits of one — under STV and STE, with
// activations resident and spilling to the NVMe tier through the lanes'
// tap multiplexer, across overflow skips and clips — so
// every step's loss, and the master weights, Stats and checkpoint bytes,
// equal the serial reference's. The lane count is set through the
// rank's seam, so every count runs on any host.
func TestLanesInARank(t *testing.T) {
	for lanes := 1; lanes <= 4; lanes++ {
		for _, ste := range []bool{false, true} {
			for _, tier := range []actKind{actNone, actNVMe} {
				c := genConfig{Shape: s111, Lanes: lanes, M: 2, Rows: 4, STE: ste, Act: tier,
					Clip: 1, Overflow: true, Bucket: 4000, Steps: 8, Data: uint64(lanes)}
				c.normalize()
				t.Run(fmt.Sprintf("lanes%d/ste=%v/act=%q", lanes, ste, tier), func(t *testing.T) { runConfig(t, c) })
			}
		}
	}
}
