package rf

import (
	"fmt"
	"math"
	"math/cmplx"

	"wlansim/internal/dsp"
	"wlansim/internal/units"
)

// This file provides the RF-specific characterization analyses the paper
// runs in SpectreRF (§3.2): measurement of gain, 1 dB compression point,
// third-order intercept point, noise figure and image rejection of a block
// by driving it with tone test benches — the simulation equivalent of the
// Periodic Steady State analyses.

// Characterizer drives Block test benches.
type Characterizer struct {
	// SampleRateHz is the test-bench rate (must match the block's noise
	// bandwidth configuration for NF measurements).
	SampleRateHz float64
	// ToneLength is the number of samples per tone measurement (a power of
	// two; default 4096).
	ToneLength int
}

// NewCharacterizer returns a test bench at the given rate.
func NewCharacterizer(sampleRateHz float64) *Characterizer {
	return &Characterizer{SampleRateHz: sampleRateHz, ToneLength: 4096}
}

func (c *Characterizer) length() int {
	if c.ToneLength >= 16 && c.ToneLength&(c.ToneLength-1) == 0 {
		return c.ToneLength
	}
	return 4096
}

// toneBinPower measures the power (watts) in a single FFT bin of the block
// output driven by tones; the block is Reset before the run and the first
// half of the record is discarded as transient.
func (c *Characterizer) tonePower(b Block, bins []int, amps []float64, measureBin int) float64 {
	n := c.length()
	x := make([]complex128, 2*n)
	for i := range x {
		for t, bin := range bins {
			ph := 2 * math.Pi * float64(bin) * float64(i) / float64(n)
			//lint:ignore hotpathexp offline tone synthesis for block characterization, not the packet path
			x[i] += complex(amps[t], 0) * cmplx.Exp(complex(0, ph))
		}
	}
	b.Reset()
	y := b.Process(x)
	seg := y[n:]
	fx := dsp.FFT(seg)
	v := fx[((measureBin%n)+n)%n] / complex(float64(n), 0)
	return real(v)*real(v) + imag(v)*imag(v)
}

// MeasureGain returns the small-signal power gain in dB at the given
// input power (dBm), using a single tone at 1/16 of the sample rate.
func (c *Characterizer) MeasureGain(b Block, pinDBm float64) float64 {
	n := c.length()
	bin := n / 16
	amp := units.DBmToAmplitude(pinDBm)
	pout := c.tonePower(b, []int{bin}, []float64{amp}, bin)
	return units.WattsToDBm(pout) - pinDBm
}

// MeasureP1dB sweeps the input power upward until the gain drops 1 dB
// below the small-signal gain and returns the input-referred compression
// point in dBm. The search covers [-80, +20] dBm in the given step (dB).
func (c *Characterizer) MeasureP1dB(b Block, stepDB float64) (float64, error) {
	if stepDB <= 0 {
		stepDB = 0.25
	}
	g0 := c.MeasureGain(b, -80)
	prev, gPrev := -80.0, g0
	for pin := -80 + stepDB; pin <= 20; pin += stepDB {
		g := c.MeasureGain(b, pin)
		if g0-g >= 1 {
			// Linear interpolation between the last two points.
			frac := (g0 - 1 - gPrev) / (g - gPrev)
			return prev + frac*(pin-prev), nil
		}
		prev, gPrev = pin, g
	}
	return 0, fmt.Errorf("rf: no 1 dB compression found up to +20 dBm (linear block?)")
}

// MeasureIIP3 runs the classic two-tone test at the given per-tone input
// power and extrapolates the input-referred third-order intercept:
// IIP3 = Pin + (Pfund - Pim3)/2.
func (c *Characterizer) MeasureIIP3(b Block, pinDBm float64) (float64, error) {
	n := c.length()
	b1, b2 := n/8, n/8+n/32 // two tones spaced n/32 bins
	im3 := 2*b1 - b2
	amp := units.DBmToAmplitude(pinDBm)
	pf := c.tonePower(b, []int{b1, b2}, []float64{amp, amp}, b1)
	pi := c.tonePower(b, []int{b1, b2}, []float64{amp, amp}, im3)
	if pi <= 0 {
		return 0, fmt.Errorf("rf: no IM3 product detected (linear block?)")
	}
	suppression := units.WattsToDBm(pf) - units.WattsToDBm(pi)
	return pinDBm + suppression/2, nil
}

// MeasureNoiseFigure measures the output noise of the silent block and
// returns the noise figure in dB implied by NF = Pout_noise - G - kTB, with
// B the bench sample rate. gainDB must be the block's small-signal gain.
func (c *Characterizer) MeasureNoiseFigure(b Block, gainDB float64) (float64, error) {
	if c.SampleRateHz <= 0 {
		return 0, fmt.Errorf("rf: characterizer needs a sample rate for NF")
	}
	n := c.length() * 8
	b.Reset()
	y := b.Process(make([]complex128, n))
	pn := units.MeanPower(y[n/4:])
	if pn <= 0 {
		return 0, fmt.Errorf("rf: block is noiseless")
	}
	ktb := units.ThermalNoisePower(c.SampleRateHz)
	// Pout = kTB*(F-1)*G for a block with only internal noise (no source
	// noise is injected by this bench).
	f := pn/(ktb*units.DBToLinear(gainDB)) + 1
	return units.LinearToDB(f), nil
}

// MeasureImageRejection drives a tone at +nu and returns the ratio of
// direct to image (-nu) output power in dB.
func (c *Characterizer) MeasureImageRejection(b Block, pinDBm float64) (float64, error) {
	n := c.length()
	bin := n / 8
	amp := units.DBmToAmplitude(pinDBm)
	pd := c.tonePower(b, []int{bin}, []float64{amp}, bin)
	pi := c.tonePower(b, []int{bin}, []float64{amp}, n-bin)
	if pi <= 0 {
		return math.Inf(1), nil
	}
	return units.LinearToDB(pd / pi), nil
}

// BlockReport is a datasheet-style summary of a block.
type BlockReport struct {
	GainDB           float64
	P1dBDBm          float64
	IIP3DBm          float64
	NoiseFigureDB    float64
	ImageRejectionDB float64
}

// String formats the report.
func (r BlockReport) String() string {
	fmtOne := func(v float64, unit string) string {
		if math.IsInf(v, 1) {
			return "inf"
		}
		if math.IsNaN(v) {
			return "n/a"
		}
		return fmt.Sprintf("%.2f %s", v, unit)
	}
	return fmt.Sprintf("gain %s, P1dB %s, IIP3 %s, NF %s, IRR %s",
		fmtOne(r.GainDB, "dB"), fmtOne(r.P1dBDBm, "dBm"), fmtOne(r.IIP3DBm, "dBm"),
		fmtOne(r.NoiseFigureDB, "dB"), fmtOne(r.ImageRejectionDB, "dB"))
}

// Characterize measures a complete datasheet for the block. Measurements
// that do not apply (linear block, noiseless block) come back as NaN/Inf.
func (c *Characterizer) Characterize(b Block) BlockReport {
	rep := BlockReport{GainDB: c.MeasureGain(b, -60)}
	if p1, err := c.MeasureP1dB(b, 0.25); err == nil {
		rep.P1dBDBm = p1
	} else {
		rep.P1dBDBm = math.Inf(1)
	}
	if ip3, err := c.MeasureIIP3(b, -30); err == nil {
		rep.IIP3DBm = ip3
	} else {
		rep.IIP3DBm = math.Inf(1)
	}
	if nf, err := c.MeasureNoiseFigure(b, rep.GainDB); err == nil {
		rep.NoiseFigureDB = nf
	} else {
		rep.NoiseFigureDB = math.NaN()
	}
	if irr, err := c.MeasureImageRejection(b, -60); err == nil {
		rep.ImageRejectionDB = irr
	} else {
		rep.ImageRejectionDB = math.Inf(1)
	}
	return rep
}
