package analog

import (
	"fmt"

	"wlansim/internal/rf"
)

// DefaultFrontEndConfig is the circuit-level model of the default behavioral
// line-up, rf.DefaultReceiverConfig, at the native 20 MHz input rate.
func DefaultFrontEndConfig() FrontEndConfig {
	cfg, err := ConfigFor(rf.DefaultReceiverConfig(1))
	if err != nil {
		panic(err) // the default line-up always maps
	}
	return cfg
}

// ConfigFor maps a behavioral receiver line-up onto the circuit model, so
// both abstraction levels run the same RF parameters: the input rate, the
// LNA's gain, noise figure and 1 dB compression point (from the IIP3 by the
// cubic relation when UseCompression is off), the DC-block corner, the LO
// linewidth and the channel-select Chebyshev. The solver settings take their
// defaults: 32x oversampling, 15 dB output gain, noise off (the §4.3
// artifact) and seed 1. The differences table lists the fields it leaves
// out.
//
// The circuit LNA is a cubic, so a Linear LNA is an error (a Rapp LNA maps
// to the cubic with its compression point); so are LOs of different
// linewidths, since one linewidth drives both circuit conversions.
func ConfigFor(rc rf.ReceiverConfig) (FrontEndConfig, error) {
	lna := rc.LNA
	if lna.Model != rf.Cubic && lna.Model != rf.Rapp {
		return FrontEndConfig{}, fmt.Errorf("analog: LNA model %d has no circuit counterpart", lna.Model)
	}
	p1dB := lna.CompressionDBm
	if !lna.UseCompression {
		p1dB = rf.P1dBFromIIP3(lna.IIP3DBm)
	}
	lw1, lw2 := linewidth(rc.Mixer1.LO), linewidth(rc.Mixer2.LO)
	//lint:ignore floateq one linewidth drives both circuit conversions, so any difference is a different line-up
	if lw1 != lw2 {
		return FrontEndConfig{}, fmt.Errorf("analog: LO linewidths %g and %g Hz differ; the circuit has one for both conversions", lw1, lw2)
	}
	return FrontEndConfig{
		InputRateHz:           rc.SampleRateHz,
		SolverOversample:      32,
		LNAGainDB:             lna.GainDB,
		LNACompressionDBm:     p1dB,
		LNANoiseFigureDB:      lna.NoiseFigureDB,
		DCBlockCornerHz:       rc.DCBlockCornerHz,
		LOLinewidthHz:         lw1,
		ChannelFilterOrder:    rc.ChannelFilterOrder,
		ChannelFilterEdgeHz:   rc.ChannelFilterEdgeHz,
		ChannelFilterRippleDB: rc.ChannelFilterRippleDB,
		OutputGainDB:          15,
		Seed:                  1,
	}, nil
}

// linewidth is an LO's phase-noise linewidth, 0 for an ideal (nil) LO.
func linewidth(lo *rf.LOConfig) float64 {
	if lo == nil {
		return 0
	}
	return lo.LinewidthHz
}

// A difference names rf.ReceiverConfig fields ConfigFor leaves out, by path
// (a struct's path covers all its fields), and why.
type difference struct {
	fields []string
	why    string
}

// differences lists every rf.ReceiverConfig field that has no effect on the
// circuit model: the modelling differences between the behavioral and the
// circuit-level front ends.
var differences = []difference{
	{[]string{"Mixer2.IQGainImbalanceDB", "Mixer2.IQPhaseErrorDeg", "Mixer2.DCOffsetDBm", "Mixer2.EnableDC"},
		"the circuit's I/Q imbalance and self-mixing DC are its own fields, off by default, so the recorded co-sim goldens hold"},
	{[]string{"Mixer1.IQGainImbalanceDB", "Mixer1.IQPhaseErrorDeg", "Mixer1.DCOffsetDBm", "Mixer1.EnableDC"},
		"the first circuit conversion is a real passband multiplier: no I/Q rails, no self-mixing DC"},
	{[]string{"Mixer1.ConversionGainDB", "Mixer1.NoiseFigureDB", "Mixer2.ConversionGainDB", "Mixer2.NoiseFigureDB"},
		"the circuit mixers are ideal multipliers: no conversion gain, no noise"},
	{[]string{"LNA.AMPMDegPerDB"},
		"the circuit LNA is a memoryless real cubic: no AM/PM"},
	{[]string{"Mixer1.LO.FrequencyOffsetHz", "Mixer2.LO.FrequencyOffsetHz"},
		"the circuit LOs sit exactly at the scaled carrier: no static frequency error"},
	{[]string{"Oversample", "AGC", "ADC"},
		"the circuit front end ends at a fixed output gain at its input rate: no decimation, AGC or ADC"},
	{[]string{"DisableNoise", "LNA.DisableNoise", "Mixer1.DisableNoise", "Mixer2.DisableNoise"},
		"the circuit's noise switch is the solver's EnableNoise, off by default (the §4.3 artifact)"},
	{[]string{"LNA.Name", "Mixer1.Name", "Mixer2.Name",
		"LNA.NoiseSeed", "Mixer1.NoiseSeed", "Mixer2.NoiseSeed", "Mixer1.LO.Seed", "Mixer2.LO.Seed"},
		"names and behavioral noise seeds: the circuit draws every stream from its own Seed"},
	{[]string{"LNA.SampleRateHz", "Mixer1.SampleRateHz", "Mixer2.SampleRateHz",
		"Mixer1.LO.SampleRateHz", "Mixer2.LO.SampleRateHz"},
		"per-block rates: every circuit block runs at the solver rate, derived from SampleRateHz"},
}
