// Package units provides the decibel, power and noise conversions used
// throughout the simulator.
//
// Conventions:
//   - Powers are referred to a 1 ohm load unless stated otherwise, so the
//     instantaneous power of a complex baseband sample x is |x|^2 and the
//     mean power of a signal is E[|x|^2].
//   - dBm values are absolute powers referenced to one milliwatt.
//   - dB values are dimensionless ratios.
package units

import "math"

// Boltzmann is the Boltzmann constant in joules per kelvin.
const Boltzmann = 1.380649e-23

// RoomTemperature is the standard noise reference temperature T0 in kelvin.
const RoomTemperature = 290.0

// DBToLinear converts a power ratio in dB to a linear power ratio.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to dB.
// It returns -Inf for a non-positive ratio.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// DBToVoltageGain converts a power gain in dB to the equivalent voltage
// (amplitude) gain.
func DBToVoltageGain(db float64) float64 { return math.Pow(10, db/20) }

// VoltageGainToDB converts a voltage (amplitude) gain to a power gain in dB.
func VoltageGainToDB(g float64) float64 {
	if g <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(g)
}

// DBmToWatts converts an absolute power in dBm to watts.
func DBmToWatts(dbm float64) float64 { return 1e-3 * math.Pow(10, dbm/10) }

// WattsToDBm converts an absolute power in watts to dBm.
// It returns -Inf for a non-positive power.
func WattsToDBm(w float64) float64 {
	if w <= 0 {
		return math.Inf(-1)
	}
	return 10*math.Log10(w) + 30
}

// DBmToAmplitude returns the rms amplitude of a signal whose mean power into
// a 1 ohm load equals the given dBm value. For a complex baseband signal of
// mean power P, the rms amplitude is sqrt(P).
func DBmToAmplitude(dbm float64) float64 { return math.Sqrt(DBmToWatts(dbm)) }

// ThermalNoisePower returns the thermal noise power kTB in watts for the
// given bandwidth in hertz at the standard reference temperature.
func ThermalNoisePower(bandwidthHz float64) float64 {
	return Boltzmann * RoomTemperature * bandwidthHz
}

// ThermalNoiseDBm returns the thermal noise floor kTB in dBm for the given
// bandwidth in hertz (about -174 dBm/Hz at T0).
func ThermalNoiseDBm(bandwidthHz float64) float64 {
	return WattsToDBm(ThermalNoisePower(bandwidthHz))
}

// MeanPower returns the average instantaneous power of a complex signal into
// a 1 ohm load. It returns 0 for an empty slice.
func MeanPower(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum / float64(len(x))
}

// PeakPower returns the maximum instantaneous power of a complex signal.
func PeakPower(x []complex128) float64 {
	var peak float64
	for _, v := range x {
		if p := real(v)*real(v) + imag(v)*imag(v); p > peak {
			peak = p
		}
	}
	return peak
}

// PAPRdB returns the peak-to-average power ratio of the signal in dB.
// It returns 0 for an empty or all-zero signal.
func PAPRdB(x []complex128) float64 {
	mean := MeanPower(x)
	if mean <= 0 {
		return 0
	}
	return LinearToDB(PeakPower(x) / mean)
}

// Scale multiplies the signal in place by the real gain g and returns it.
func Scale(x []complex128, g float64) []complex128 {
	for i := range x {
		x[i] *= complex(g, 0)
	}
	return x
}

// SetPowerDBm scales the signal in place so that its mean power equals the
// given dBm value, and returns the applied voltage gain. A zero signal is
// returned unchanged with gain 1.
func SetPowerDBm(x []complex128, dbm float64) float64 {
	p := MeanPower(x)
	if p <= 0 {
		return 1
	}
	g := math.Sqrt(DBmToWatts(dbm) / p)
	Scale(x, g)
	return g
}
