package units

import (
	"math"
	"math/rand"
	"testing"
)

// closeRel fails unless got is within relative tolerance of want.
func closeRel(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	scale := math.Abs(want)
	if scale < 1 {
		scale = 1
	}
	if math.Abs(got-want) > tol*scale {
		t.Errorf("%s = %g, want %g (tol %g)", name, got, want, tol)
	}
}

// TestDBRoundTrips drives every conversion pair through randomized
// round trips across the dynamic range the simulator actually uses
// (roughly -174 dBm noise floor to +30 dBm transmit power).
func TestDBRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	const tol = 1e-12
	for i := 0; i < 2000; i++ {
		db := -200 + 400*rng.Float64()
		closeRel(t, "LinearToDB(DBToLinear(db))", LinearToDB(DBToLinear(db)), db, tol)
		closeRel(t, "WattsToDBm(DBmToWatts(db))", WattsToDBm(DBmToWatts(db)), db, tol)
		closeRel(t, "VoltageGainToDB(DBToVoltageGain(db))", VoltageGainToDB(DBToVoltageGain(db)), db, tol)

		// A power ratio and its voltage-gain form must agree: 10^(db/10) ==
		// (10^(db/20))^2.
		g := DBToVoltageGain(db)
		closeRel(t, "DBToVoltageGain^2 vs DBToLinear", g*g, DBToLinear(db), 1e-9)
	}
	for i := 0; i < 2000; i++ {
		// Log-uniform linear ratios across ~40 decades.
		lin := math.Pow(10, -20+40*rng.Float64())
		closeRel(t, "DBToLinear(LinearToDB(lin))", DBToLinear(LinearToDB(lin)), lin, 1e-9)
		closeRel(t, "DBmToWatts(WattsToDBm(w))", DBmToWatts(WattsToDBm(lin)), lin, 1e-9)
		closeRel(t, "DBToVoltageGain(VoltageGainToDB(g))", DBToVoltageGain(VoltageGainToDB(lin)), lin, 1e-9)
	}
}

// TestNonPositiveInputs pins the -Inf convention for every logarithmic
// conversion on empty or unphysical input.
func TestNonPositiveInputs(t *testing.T) {
	for _, v := range []float64{0, -1e-12, -1, math.Inf(-1)} {
		for name, fn := range map[string]func(float64) float64{
			"LinearToDB":      LinearToDB,
			"WattsToDBm":      WattsToDBm,
			"VoltageGainToDB": VoltageGainToDB,
		} {
			if got := fn(v); !math.IsInf(got, -1) {
				t.Errorf("%s(%g) = %g, want -Inf", name, v, got)
			}
		}
	}
	if got := PAPRdB(nil); got != 0 {
		t.Errorf("PAPRdB(nil) = %g, want 0", got)
	}
	if got := PAPRdB(make([]complex128, 16)); got != 0 {
		t.Errorf("PAPRdB(zero signal) = %g, want 0", got)
	}
}

// TestNoiseFloorAndNoiseFigure checks the kTB anchor points the RF noise
// models are built on: -174 dBm/Hz at T0 and the textbook noise-figure
// excess-power identity.
func TestNoiseFloorAndNoiseFigure(t *testing.T) {
	if got := ThermalNoiseDBm(1); math.Abs(got-(-173.975)) > 0.01 {
		t.Errorf("ThermalNoiseDBm(1 Hz) = %g, want about -173.975", got)
	}
	// 20 MHz channel: -174 + 10 log10(2e7) = about -100.9 dBm.
	if got := ThermalNoiseDBm(20e6); math.Abs(got-(-100.96)) > 0.05 {
		t.Errorf("ThermalNoiseDBm(20 MHz) = %g, want about -100.96", got)
	}
	// A noise figure F multiplies kTB: floor(NF) = floor(0) + NF in dB.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		nfDB := 12 * rng.Float64()
		bw := math.Pow(10, 3+6*rng.Float64())
		withNF := WattsToDBm(ThermalNoisePower(bw) * DBToLinear(nfDB))
		closeRel(t, "noise floor with NF", withNF, ThermalNoiseDBm(bw)+nfDB, 1e-9)
	}
	// Bandwidth doubling raises the floor by exactly 3.0103 dB.
	d := ThermalNoiseDBm(2e6) - ThermalNoiseDBm(1e6)
	closeRel(t, "floor delta per bandwidth doubling", d, 10*math.Log10(2), 1e-9)
}

// TestSetPowerDBmRoundTrip scales random signals to random target powers
// and verifies the measured power lands on the target.
func TestSetPowerDBmRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		x := make([]complex128, 256)
		for j := range x {
			x[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		target := -90 + 80*rng.Float64()
		g := SetPowerDBm(x, target)
		if g <= 0 {
			t.Fatalf("SetPowerDBm returned non-positive gain %g", g)
		}
		closeRel(t, "MeanPowerDBm after SetPowerDBm", WattsToDBm(MeanPower(x)), target, 1e-9)
	}
	// Zero signal: unchanged, gain 1.
	z := make([]complex128, 8)
	if g := SetPowerDBm(z, -10); g != 1 {
		t.Errorf("SetPowerDBm(zero signal) gain = %g, want 1", g)
	}
}
