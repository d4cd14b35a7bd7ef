package dsp

import "math"

// Window identifies a tapering window function.
type Window int

// Supported window functions.
const (
	Rectangular Window = iota
	Hann
	Hamming
	Blackman
	BlackmanHarris
)

// String returns the window name.
func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	case BlackmanHarris:
		return "blackman-harris"
	default:
		return "unknown"
	}
}

// Coefficients returns the n window samples. The windows are symmetric
// (suitable for FIR design); for n == 1 the single coefficient is 1.
func (w Window) Coefficients(n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	den := float64(n - 1)
	for i := range out {
		x := float64(i) / den
		switch w {
		case Rectangular:
			out[i] = 1
		case Hann:
			out[i] = 0.5 - 0.5*math.Cos(2*math.Pi*x)
		case Hamming:
			out[i] = 0.54 - 0.46*math.Cos(2*math.Pi*x)
		case Blackman:
			out[i] = 0.42 - 0.5*math.Cos(2*math.Pi*x) + 0.08*math.Cos(4*math.Pi*x)
		case BlackmanHarris:
			out[i] = 0.35875 - 0.48829*math.Cos(2*math.Pi*x) +
				0.14128*math.Cos(4*math.Pi*x) - 0.01168*math.Cos(6*math.Pi*x)
		default:
			out[i] = 1
		}
	}
	return out
}

// PowerGain returns the mean squared window value, used to normalize power
// spectral density estimates.
func (w Window) PowerGain(n int) float64 {
	c := w.Coefficients(n)
	var sum float64
	for _, v := range c {
		sum += v * v
	}
	return sum / float64(n)
}
