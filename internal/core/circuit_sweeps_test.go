package core

import (
	"testing"

	"wlansim/internal/measure"
)

// TestCircuitSweepsRespond runs the paper's RF sweeps on the co-sim and
// black-box front ends, with no adjacent channel and fixed seeds, over grids
// that cross the behavioral front end's cliff: Figure 5's filter edges,
// Figure 6's LNA compression points and the LNA IIP3s. The circuit-level
// front ends are built from the same tuned rf.ReceiverConfig as the
// behavioral one (analog.ConfigFor), so each sweep must respond to its
// parameter: its points are not all equal, the narrowest or lowest point
// reads BER > 0.1 and the widest or highest reads 0. A front end that
// ignores the swept parameter returns a flat curve and fails.
func TestCircuitSweepsRespond(t *testing.T) {
	fig5 := Figure5Config()
	fig5.Interferers = nil
	fig5.Packets = 4
	fig6 := Figure6Config()
	fig6.Packets = 4
	sweeps := []struct {
		name string
		grid []float64
		run  func(Config, []float64) (*measure.Series, error)
		base Config
	}{
		{"filter edge", []float64{4e6, 6e6, 9.5e6}, FilterBandwidthSweep, fig5},
		{"compression point", []float64{-70, -60, -50, -40, -30}, func(c Config, v []float64) (*measure.Series, error) {
			return CompressionPointSweep(c, v, false)
		}, fig6},
		{"IIP3", []float64{-60, -50, -40, -30, -20}, func(c Config, v []float64) (*measure.Series, error) {
			return IP3Sweep(c, v, false)
		}, fig6},
	}
	for _, fe := range []FrontEndKind{FrontEndCoSim, FrontEndBlackBox} {
		for _, sw := range sweeps {
			base := sw.base
			base.FrontEnd = fe
			series, err := sw.run(base, sw.grid)
			if err != nil {
				t.Fatalf("%v %s sweep: %v", fe, sw.name, err)
			}
			ys := make([]float64, len(series.Points))
			flat := true
			for i, p := range series.Points {
				ys[i] = p.Y
				flat = flat && p.Y == ys[0]
			}
			first, last := ys[0], ys[len(ys)-1]
			if flat || first <= 0.1 || last != 0 {
				t.Errorf("%v %s sweep over %v reads BER %v; want a curve from above 0.1 down to 0",
					fe, sw.name, sw.grid, ys)
			}
		}
	}
}
