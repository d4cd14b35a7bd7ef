package rf

import (
	"fmt"

	"wlansim/internal/dsp"
)

// ChebyshevLowpass is the baseband channel-select filter of the receiver
// (paper §2.2/§5.1), a type-I Chebyshev low-pass specified in hertz.
type ChebyshevLowpass struct {
	iir *dsp.IIR
	// PassbandEdgeHz is the design passband edge.
	PassbandEdgeHz float64
	// Order is the filter order.
	Order int
	// RippleDB is the passband ripple.
	RippleDB float64
}

// NewChebyshevLowpass designs the filter for the given sample rate.
func NewChebyshevLowpass(order int, passbandEdgeHz, rippleDB, sampleRateHz float64) (*ChebyshevLowpass, error) {
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("rf: chebyshev lowpass: sample rate %g", sampleRateHz)
	}
	iir, err := dsp.DesignChebyshev1(order, dsp.Lowpass, passbandEdgeHz/sampleRateHz, rippleDB)
	if err != nil {
		return nil, err
	}
	return &ChebyshevLowpass{
		iir:            iir,
		PassbandEdgeHz: passbandEdgeHz,
		Order:          order,
		RippleDB:       rippleDB,
	}, nil
}

// Process filters a frame in place and returns it.
func (f *ChebyshevLowpass) Process(x []complex128) []complex128 { return f.iir.Process(x) }

// Reset clears the filter state.
func (f *ChebyshevLowpass) Reset() { f.iir.Reset() }

// MagnitudeDB evaluates the response at freqHz for the given sample rate.
//
//lint:ignore testonly the circuit-level Chebyshev cross test in internal/analog reads the behavioral filter's response through it
func (f *ChebyshevLowpass) MagnitudeDB(freqHz, sampleRateHz float64) float64 {
	return f.iir.MagnitudeDB(freqHz / sampleRateHz)
}

// DCBlock is the inter-stage high-pass filter that removes the self-mixing
// DC offset and 1/f noise between the two mixer stages (paper §2.2).
type DCBlock struct {
	iir *dsp.IIR
	// CornerHz is the -3 dB corner frequency.
	CornerHz float64
}

// NewDCBlock designs the high-pass for the given corner and sample rate.
func NewDCBlock(cornerHz, sampleRateHz float64) (*DCBlock, error) {
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("rf: dc block: sample rate %g", sampleRateHz)
	}
	iir, err := dsp.DesignDCBlock(cornerHz / sampleRateHz)
	if err != nil {
		return nil, err
	}
	return &DCBlock{iir: iir, CornerHz: cornerHz}, nil
}

// Process filters a frame in place and returns it.
func (f *DCBlock) Process(x []complex128) []complex128 { return f.iir.Process(x) }

// Reset clears the filter state.
func (f *DCBlock) Reset() { f.iir.Reset() }
