package core

import (
	"fmt"
	"testing"

	"wlansim/internal/race"
)

// packetRunAllocBudget is the steady-state allocation budget for one
// behavioral packet simulation (one Bench.Run with warm buffers). The real
// figure is ~14–17 objects — receiver result assembly and a handful of
// unavoidable interface boxes — and, critically, it must not scale with the
// symbol count: 6 Mbit/s sends ~4x the OFDM symbols of 54 Mbit/s, so a
// per-symbol allocation shows up as a rate-dependent blow-up long before it
// trips the shared budget.
const packetRunAllocBudget = 24

// TestPacketRunAllocBounded gates every rate's packet hot path under one
// shared AllocsPerRun budget. Before the TransmitInto/ReuseBuffers work the
// 6 Mbit/s path allocated ~4x the other rates (fresh per-symbol and
// per-frame buffers); this test keeps all rates on the reuse path.
func TestPacketRunAllocBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("behavioral chain too slow for -short")
	}
	if race.Enabled {
		// The receive chain rides the FFT plan's sync.Pool scratch, and the
		// race detector intentionally drops pool Puts, inflating the count
		// past the budget. check.sh enforces this gate without -race.
		t.Skip("sync.Pool drops Puts under the race detector; the non-race alloc gate enforces this budget")
	}
	type row struct {
		name string
		cfg  Config
	}
	var rows []row
	for _, rate := range []int{6, 24, 54} {
		rows = append(rows, row{fmt.Sprintf("%d Mbit/s", rate), packetBenchConfig(rate)})
	}
	// The adjacent-channel scenario composes a 3x composite every packet:
	// the interferer synthesis and the composer's interpolator must run on
	// reused scratch too, not on a per-packet rebuild.
	adj := Figure5Config()
	adj.Packets = 1
	adj.FrontEnd = FrontEndBehavioral
	rows = append(rows, row{"adjacent channel", adj})
	for _, r := range rows {
		bench, err := NewBench(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm every reused buffer (front end, frame, scratch, receiver).
		if _, err := bench.Run(); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(5, func() {
			if _, err := bench.Run(); err != nil {
				panic(err)
			}
		})
		t.Logf("%s: %v allocations per packet run", r.name, n)
		if n > packetRunAllocBudget {
			t.Errorf("%s: %v allocations per packet run, budget %d — a hot-path buffer stopped being reused",
				r.name, n, packetRunAllocBudget)
		}
	}
}
