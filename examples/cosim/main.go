// Co-simulation study: the same receiver at two abstraction levels. The
// complex-baseband behavioral model (the pure system-level run) is compared
// with the continuous-time analog solver (the SPW/AMS co-simulation run) on
// identical packets: both must decode, the co-simulation costs about ten
// times more wall clock (the paper's Table 2 reports 30-40x for its tool
// coupling), and disabling its noise sources
// reproduces the §4.3 artifact where the co-simulated BER looks better than
// reality.
package main

import (
	"fmt"
	"log"

	"wlansim"
)

func main() {
	base := wlansim.DefaultConfig()
	base.Packets = 2
	base.PSDULen = 100

	// 1. Same packets through both abstraction levels.
	for _, fe := range []wlansim.FrontEndKind{wlansim.FrontEndBehavioral, wlansim.FrontEndCoSim} {
		cfg := base
		cfg.FrontEnd = fe
		bench, err := wlansim.NewBench(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := bench.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s BER %.4g, EVM %.2f%%\n", fe.String()+":", res.BER(), res.EVM.Percent())
	}

	// 2. Wall-clock comparison (Table 2).
	rows, err := wlansim.TimingComparison(base, []int{1, 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSimulation time comparison:")
	for _, r := range rows {
		fmt.Printf("  %d packet(s): system-level %.3fs, co-sim %.3fs (%.0fx)\n",
			r.Packets, r.FastSeconds, r.CoSimSeconds, r.Ratio())
	}

	// 3. The noise artifact at a power below sensitivity.
	weak := base
	weak.Packets = 3
	weak.WantedPowerDBm = -95
	art, err := wlansim.NoiseArtifactExperiment(weak)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nNoise artifact at -95 dBm:")
	fmt.Printf("  behavioral (noise on):      BER %.3g\n", art.BehavioralBER)
	fmt.Printf("  co-sim without noise:       BER %.3g  (misleadingly good)\n", art.CoSimNoNoiseBER)
	fmt.Printf("  co-sim with noise restored: BER %.3g\n", art.CoSimWithNoiseBER)
}
