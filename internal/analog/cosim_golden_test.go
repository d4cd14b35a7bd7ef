package analog

import (
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/units"
)

// cosimCase is one front-end scenario of the co-sim waveform goldens and
// the differential tests: a configuration and a sequence of frames that run
// back to back through one FrontEnd, with a Reset before the frames marked
// in reset.
type cosimCase struct {
	name   string
	tune   func(*FrontEndConfig)
	frames []int  // frame lengths in input samples
	reset  []bool // Reset before frame k (the first frame always starts fresh)
	golden uint64 // FNV-1a digest of every output sample's Float64bits
}

// cosimCases covers every branch of Process: OLS and direct upsampling
// (frames below 2×taps/SolverOversample input samples take the direct
// path), frames that are not a whole number of upsampler blocks, back-to-
// back frames without Reset, LNA noise on and off, I/Q imbalance, DC,
// zero LO linewidth, SolverOversample 16, no DC block and no channel filter,
// an oversampled composite input, and channel filters of order 1, 3, 7
// (Figure 5's) and 10, which cover the solver kernel's section shapes: no
// biquad, one, three and five biquad sections, with and without the real-pole
// section.
var cosimCases = []cosimCase{
	{name: "default/2020", frames: []int{2020}, golden: 0xdf278fc86109f621},
	{name: "default/streamed", frames: []int{37, 200, 2020, 4000, 20}, golden: 0xad94062fdc39b33e},
	{name: "default/reset", frames: []int{200, 2020, 31, 2020}, reset: []bool{false, true, false, true},
		golden: 0xad7e2e6062e2324e},
	{name: "impaired", tune: func(c *FrontEndConfig) {
		c.EnableNoise = true
		c.LNANoiseFigureDB = 8
		c.IQGainImbalanceDB = 1
		c.IQPhaseErrorDeg = 4
		c.EnableDC = true
		c.DCOffsetDBm = -70
	}, frames: []int{37, 2020, 4000}, reset: []bool{false, false, true}, golden: 0x1c9f88baf87a2224},
	{name: "os16/zero-linewidth", tune: func(c *FrontEndConfig) {
		c.SolverOversample = 16
		c.LOLinewidthHz = 0
	}, frames: []int{20, 31, 37, 2020, 4000}, golden: 0x819f0f726dcc2b8f},
	{name: "os16/noise", tune: func(c *FrontEndConfig) {
		c.SolverOversample = 16
		c.EnableNoise = true
	}, frames: []int{2020, 200}, golden: 0x8c1b47e006c35020},
	{name: "no-hpf-no-lpf", tune: func(c *FrontEndConfig) {
		c.DCBlockCornerHz = 0
		c.ChannelFilterOrder = 0
	}, frames: []int{200, 2020}, golden: 0x4ada95ecda86bbf3},
	{name: "even-order", tune: func(c *FrontEndConfig) {
		c.ChannelFilterOrder = 4
		c.SolverOversample = 12
	}, frames: []int{500, 7}, golden: 0x7a7d65f4cfbf6775},
	{name: "input80MHz", tune: func(c *FrontEndConfig) {
		c.InputRateHz = 80e6
	}, frames: []int{500, 123}, golden: 0xaccd45f89a0cc725},
	{name: "order3/noise", tune: func(c *FrontEndConfig) {
		c.ChannelFilterOrder = 3
		c.EnableNoise = true
	}, frames: []int{2020, 37}, golden: 0xf61f0d5640727bd7},
	{name: "order7/fig5", tune: func(c *FrontEndConfig) {
		c.ChannelFilterOrder = 7
		c.ChannelFilterEdgeHz = 8e6
	}, frames: []int{37, 2020, 200}, reset: []bool{false, true, false}, golden: 0x6ce118db5a20fc3},
	{name: "order10/no-hpf", tune: func(c *FrontEndConfig) {
		c.ChannelFilterOrder = 10
		c.DCBlockCornerHz = 0
		c.IQGainImbalanceDB = -0.5
		c.EnableDC = true
		c.DCOffsetDBm = -60
	}, frames: []int{2020, 500}, golden: 0xd1df0999564b055b},
	{name: "order1", tune: func(c *FrontEndConfig) {
		c.ChannelFilterOrder = 1
		c.EnableNoise = true
	}, frames: []int{300, 2020}, golden: 0xfe8e7754b4c53c03},
}

// cosimInput is a deterministic random frame at the wanted power of the
// Table 2 scenario, with a few samples near compression to exercise the
// LNA's cubic and clipping.
func cosimInput(rng *rand.Rand, n int) []complex128 {
	a := units.DBmToAmplitude(-62)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64()*a, rng.NormFloat64()*a)
		if i%97 == 5 {
			x[i] *= 2000
		}
	}
	return x
}

// fnvOffset is the FNV-1a 64-bit offset basis, the digest of no samples.
const fnvOffset = 14695981039346656037

// digestSamples folds samples into an FNV-1a digest of their Float64bits.
func digestSamples(h uint64, x []complex128) uint64 {
	mix := func(v uint64) {
		for b := 0; b < 8; b++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(len(x)))
	for _, v := range x {
		mix(math.Float64bits(real(v)))
		mix(math.Float64bits(imag(v)))
	}
	return h
}

// runCosimCase runs the case's frames through a fresh FrontEnd and returns
// the digest of all outputs.
func runCosimCase(t *testing.T, c cosimCase) uint64 {
	t.Helper()
	cfg := DefaultFrontEndConfig()
	if c.tune != nil {
		c.tune(&cfg)
	}
	fe, err := NewFrontEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(len(c.name))))
	h := uint64(fnvOffset)
	for k, n := range c.frames {
		if k < len(c.reset) && c.reset[k] {
			fe.Reset()
		}
		h = digestSamples(h, fe.Process(cosimInput(rng, n)))
	}
	return h
}

// TestCoSimGoldenWaveform pins FrontEnd.Process bit for bit against digests
// recorded from the per-sample solver before its block-streamed rewrite.
func TestCoSimGoldenWaveform(t *testing.T) {
	for _, c := range cosimCases {
		if got := runCosimCase(t, c); got != c.golden {
			t.Errorf("%s: digest %#x, golden %#x", c.name, got, c.golden)
		}
	}
}
