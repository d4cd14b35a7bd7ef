package rxdsp

import (
	"testing"

	"wlansim/internal/race"
)

// TestGroupReceiveAllocsOnlyPSDUs gates the steady state of the packet
// loop's receive: a warm 8-lane group receive plus its DATA-field decode
// allocates only the lanes' PSDUs. sync.Pool (the FFT plan's scratch pool)
// drops Puts under the race detector, so the gate runs natively only.
func TestGroupReceiveAllocsOnlyPSDUs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; the non-race run enforces this gate")
	}
	const L = 8
	xs := benchFrames(t, L)
	rxs := make([]*Receiver, L)
	for k := range rxs {
		rxs[k] = NewReceiver()
		rxs[k].ReuseBuffers = true
	}
	g := NewGroup()
	receive := func() {
		_, errs := g.Receive(rxs, xs, 0)
		for k, err := range errs {
			if err != nil {
				t.Fatalf("lane %d: %v", k, err)
			}
		}
	}
	receive()
	if n := testing.AllocsPerRun(20, receive); n > L {
		t.Fatalf("8-lane group receive and decode allocates %v objects per packet, want at most %d (the PSDUs)", n, L)
	}
}
