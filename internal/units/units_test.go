package units

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestDBConversionsKnownValues(t *testing.T) {
	approx(t, DBToLinear(0), 1, 1e-12, "0 dB")
	approx(t, DBToLinear(3), 1.9952623, 1e-6, "3 dB")
	approx(t, DBToLinear(10), 10, 1e-9, "10 dB")
	approx(t, DBToLinear(-10), 0.1, 1e-12, "-10 dB")
	approx(t, LinearToDB(100), 20, 1e-12, "ratio 100")
	approx(t, DBToVoltageGain(20), 10, 1e-9, "20 dB voltage")
	approx(t, VoltageGainToDB(2), 6.0205999, 1e-6, "gain 2")
}

func TestDBmWattsKnownValues(t *testing.T) {
	approx(t, DBmToWatts(0), 1e-3, 1e-15, "0 dBm")
	approx(t, DBmToWatts(30), 1, 1e-12, "30 dBm")
	approx(t, DBmToWatts(-30), 1e-6, 1e-18, "-30 dBm")
	approx(t, WattsToDBm(1e-3), 0, 1e-12, "1 mW")
	approx(t, WattsToDBm(2e-3), 3.0103, 1e-4, "2 mW")
}

func TestNonPositiveInputsReturnNegInf(t *testing.T) {
	for _, v := range []float64{0, -1, -1e9} {
		if !math.IsInf(LinearToDB(v), -1) {
			t.Errorf("LinearToDB(%v) not -Inf", v)
		}
		if !math.IsInf(WattsToDBm(v), -1) {
			t.Errorf("WattsToDBm(%v) not -Inf", v)
		}
		if !math.IsInf(VoltageGainToDB(v), -1) {
			t.Errorf("VoltageGainToDB(%v) not -Inf", v)
		}
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 200) // keep within float range after exponentiation
		return math.Abs(LinearToDB(DBToLinear(db))-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBmRoundTripProperty(t *testing.T) {
	f := func(dbm float64) bool {
		dbm = math.Mod(dbm, 200)
		return math.Abs(WattsToDBm(DBmToWatts(dbm))-dbm) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThermalNoise(t *testing.T) {
	// kT at 290 K is -174 dBm/Hz (to within 0.1 dB).
	approx(t, ThermalNoiseDBm(1), -173.975, 0.05, "kT per Hz")
	// 20 MHz channel: -174 + 73 = -101 dBm.
	approx(t, ThermalNoiseDBm(20e6), -100.96, 0.05, "kTB 20 MHz")
}

func TestMeanAndPeakPower(t *testing.T) {
	x := []complex128{1, 1i, -1, -1i}
	approx(t, MeanPower(x), 1, 1e-15, "unit circle power")
	approx(t, PeakPower(x), 1, 1e-15, "unit circle peak")
	y := []complex128{complex(3, 4)}
	approx(t, MeanPower(y), 25, 1e-12, "3+4i power")
	if MeanPower(nil) != 0 {
		t.Error("MeanPower(nil) != 0")
	}
	if PeakPower(nil) != 0 {
		t.Error("PeakPower(nil) != 0")
	}
}

func TestPAPR(t *testing.T) {
	// Constant-envelope signal has 0 dB PAPR.
	x := []complex128{1, 1i, -1, -1i}
	approx(t, PAPRdB(x), 0, 1e-12, "constant envelope")
	// One sample at amplitude 2 among three zeros: peak 4, mean 1 -> 6.02 dB.
	y := []complex128{2, 0, 0, 0}
	approx(t, PAPRdB(y), 6.0206, 1e-3, "impulse PAPR")
	if PAPRdB(nil) != 0 {
		t.Error("PAPRdB(nil) != 0")
	}
}

func TestSetPowerDBm(t *testing.T) {
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	SetPowerDBm(x, -40)
	approx(t, WattsToDBm(MeanPower(x)), -40, 1e-9, "scaled power")

	zero := make([]complex128, 8)
	if g := SetPowerDBm(zero, -10); g != 1 {
		t.Errorf("zero signal gain = %v, want 1", g)
	}
}

func TestSetPowerDBmProperty(t *testing.T) {
	f := func(seed uint8, target int8) bool {
		x := make([]complex128, 64)
		for i := range x {
			v := float64((int(seed)+i*37)%19) - 9
			x[i] = complex(v, -v/2+1)
		}
		dbm := float64(target%80) - 40
		SetPowerDBm(x, dbm)
		return math.Abs(WattsToDBm(MeanPower(x))-dbm) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScale(t *testing.T) {
	x := []complex128{1 + 1i, 2}
	Scale(x, 0.5)
	if x[0] != 0.5+0.5i || x[1] != 1 {
		t.Errorf("Scale result %v", x)
	}
}
