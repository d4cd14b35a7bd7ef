package rf

import (
	"fmt"
	"math"

	"wlansim/internal/dsp"
)

// FrequencyPlan documents the double-conversion architecture of the paper
// (§2.2): the 5.2 GHz RF input is converted twice with the same 2.6 GHz LO;
// the first IF is half the RF frequency and the image falls around 0 Hz
// where no signal is present.
type FrequencyPlan struct {
	RFHz     float64
	LOHz     float64
	FirstIFz float64
}

// DefaultFrequencyPlan returns the paper's 5.2 GHz plan.
func DefaultFrequencyPlan() FrequencyPlan {
	return FrequencyPlan{RFHz: 5.2e9, LOHz: 2.6e9, FirstIFz: 2.6e9}
}

// ReceiverConfig parameterizes the complete double-conversion receiver
// model in the equivalent complex baseband.
type ReceiverConfig struct {
	// SampleRateHz is the input (composite) sample rate; the output is
	// decimated to SampleRateHz / Oversample.
	SampleRateHz float64
	// Oversample is the input oversampling factor relative to the 20 MHz
	// output rate (1 when no interferers are present).
	Oversample int

	// LNA is the low-noise amplifier stage.
	LNA AmplifierConfig
	// Mixer1 is the first down-conversion stage (RF -> RF/2).
	Mixer1 MixerConfig
	// DCBlockCornerHz is the inter-stage high-pass corner; 0 disables it.
	DCBlockCornerHz float64
	// Mixer2 is the second down-conversion stage (RF/2 -> baseband).
	Mixer2 MixerConfig

	// ChannelFilterOrder, ChannelFilterEdgeHz and ChannelFilterRippleDB
	// configure the Chebyshev channel-select low-pass (paper Fig. 5 sweeps
	// the edge frequency).
	ChannelFilterOrder    int
	ChannelFilterEdgeHz   float64
	ChannelFilterRippleDB float64

	// AGC is the baseband output amplifier loop.
	AGC AGCConfig
	// ADC quantizes the output.
	ADC ADCConfig

	// DisableNoise switches off every internal noise source (the AMS
	// co-simulation limitation of §4.3).
	DisableNoise bool
}

// DefaultReceiverConfig returns a line-up tuned for wanted input levels
// around -88..-23 dBm (paper §2.2) at the given oversampling factor.
func DefaultReceiverConfig(oversample int) ReceiverConfig {
	fs := 20e6 * float64(oversample)
	return ReceiverConfig{
		SampleRateHz: fs,
		Oversample:   oversample,
		LNA: AmplifierConfig{
			Name: "LNA1", GainDB: 18, NoiseFigureDB: 2.5,
			Model: Cubic, UseCompression: true, CompressionDBm: -10,
			SampleRateHz: fs, NoiseSeed: 101,
		},
		Mixer1: MixerConfig{
			Name: "MIX1", ConversionGainDB: 9, NoiseFigureDB: 9,
			LO:           &LOConfig{LinewidthHz: 50, Seed: 102},
			SampleRateHz: fs, NoiseSeed: 103,
		},
		DCBlockCornerHz: 150e3,
		Mixer2: MixerConfig{
			Name: "MIX2", ConversionGainDB: 6, NoiseFigureDB: 12,
			IQGainImbalanceDB: 0.2, IQPhaseErrorDeg: 1.0,
			EnableDC: true, DCOffsetDBm: -45,
			LO:           &LOConfig{LinewidthHz: 50, Seed: 104},
			SampleRateHz: fs, NoiseSeed: 105,
		},
		ChannelFilterOrder:    5,
		ChannelFilterEdgeHz:   9.5e6,
		ChannelFilterRippleDB: 0.5,
		AGC: AGCConfig{
			TargetDBm: -10, MinGainDB: -40, MaxGainDB: 40,
			TimeConstantSamples: 96 * float64(oversample), InitialGainDB: 0,
		},
		ADC: ADCConfig{Bits: 10, FullScaleDBm: 0},
	}
}

// Receiver is the assembled double-conversion RF front end. Feed it the
// composite (possibly oversampled) antenna signal; it returns the complex
// baseband at the 20 MHz output rate, including every configured analog
// impairment. Every processing call is a one-lane call, lane 0, of a lane
// receiver the Receiver owns, so the front end has one implementation; its
// blocks double as the shared blocks of any lane receiver built on it.
type Receiver struct {
	cfg     ReceiverConfig
	lna     *Amplifier
	mixer1  *Mixer
	dcBlock *DCBlock
	mixer2  *Mixer
	chanSel *ChebyshevLowpass
	agc     *AGC
	adc     *ADC
	lane    *BatchReceiver  // runs every call as lane 0
	frame   [1][]complex128 // the call's one-lane source, set during a call
}

// NewReceiver validates the configuration and assembles the front end.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Oversample < 1 {
		return nil, fmt.Errorf("rf: receiver oversample %d < 1", cfg.Oversample)
	}
	if cfg.SampleRateHz <= 0 {
		return nil, fmt.Errorf("rf: receiver sample rate %g", cfg.SampleRateHz)
	}
	cfg = cfg.asBuilt()
	r := &Receiver{cfg: cfg}
	var err error
	if r.lna, err = NewAmplifier(cfg.LNA); err != nil {
		return nil, err
	}
	if r.mixer1, err = NewMixer(cfg.Mixer1); err != nil {
		return nil, err
	}
	if cfg.DCBlockCornerHz > 0 {
		if r.dcBlock, err = NewDCBlock(cfg.DCBlockCornerHz, cfg.SampleRateHz); err != nil {
			return nil, err
		}
	}
	if r.mixer2, err = NewMixer(cfg.Mixer2); err != nil {
		return nil, err
	}
	if cfg.ChannelFilterOrder > 0 {
		r.chanSel, err = NewChebyshevLowpass(cfg.ChannelFilterOrder,
			cfg.ChannelFilterEdgeHz, cfg.ChannelFilterRippleDB, cfg.SampleRateHz)
		if err != nil {
			return nil, err
		}
	}
	if r.agc, err = NewAGC(cfg.AGC); err != nil {
		return nil, err
	}
	if r.adc, err = NewADC(cfg.ADC); err != nil {
		return nil, err
	}
	// The one lane's filter state is lane 0's of the lane receiver's filter
	// bank, so Process and the ProcessToFilter/ProcessFromFilter pair
	// continue one filter state.
	r.lane = NewBatchReceiver(r)
	r.lane.resetLanes(lane0)
	return r, nil
}

// asBuilt returns cfg as NewReceiver builds it: the receiver-wide
// DisableNoise switches off the noise of every block.
func (cfg ReceiverConfig) asBuilt() ReceiverConfig {
	if cfg.DisableNoise {
		cfg.LNA.DisableNoise = true
		cfg.Mixer1.DisableNoise = true
		cfg.Mixer2.DisableNoise = true
	}
	return cfg
}

// Cascade returns the small-signal Friis analysis of the line-up.
func (r *Receiver) Cascade() (CascadeResult, error) {
	lnaIP3 := math.Inf(1)
	if r.cfg.LNA.Model != Linear {
		if r.cfg.LNA.UseCompression {
			lnaIP3 = IIP3FromP1dB(r.cfg.LNA.CompressionDBm)
		} else {
			lnaIP3 = r.cfg.LNA.IIP3DBm
		}
	}
	return Cascade([]Stage{
		{Name: r.cfg.LNA.Name, GainDB: r.cfg.LNA.GainDB, NoiseFigureDB: r.cfg.LNA.NoiseFigureDB, IIP3DBm: lnaIP3},
		{Name: r.cfg.Mixer1.Name, GainDB: r.cfg.Mixer1.ConversionGainDB, NoiseFigureDB: r.cfg.Mixer1.NoiseFigureDB, IIP3DBm: math.Inf(1)},
		{Name: r.cfg.Mixer2.Name, GainDB: r.cfg.Mixer2.ConversionGainDB, NoiseFigureDB: r.cfg.Mixer2.NoiseFigureDB, IIP3DBm: math.Inf(1)},
	})
}

// Process runs the antenna frame through the complete front end and returns
// the 20 MHz baseband output. x is only read; the returned slice is owned by
// the receiver (reused by the next Process or ProcessFromFilter call).
//
// Consecutive calls stream: every block's state (noise and LO streams,
// filter delays, AGC loop, ADC clip count, decimation phase) carries from
// one call to the next, so a packet may arrive whole or in frames; Reset
// starts the next packet. The ADC samples at 20 MHz: decimation keeps
// every Oversample-th sample with NO extra anti-alias filter — channel
// selection is the analog Chebyshev filter's job, so an underdimensioned
// filter lets adjacent-channel energy alias into the band (the failure
// mode swept in Fig. 5).
//
// Process is exactly ProcessToFilter followed by ProcessFromFilter, so the
// chain can be split at the filter without changing a single output sample.
func (r *Receiver) Process(x []complex128) []complex128 {
	return r.oneLane(x, true)
}

// ProcessToFilter runs the line-up strictly upstream of the channel-select
// filter — LNA, first mixer, inter-stage DC block, second mixer — in place
// and returns x. Sweep harnesses whose swept parameter only affects the
// channel filter or later blocks (e.g. the Fig. 5 passband-edge sweep) cache
// this invariant, deterministic prefix per packet and replay only
// ProcessFromFilter per sweep point. Call Reset first, as with Process.
func (r *Receiver) ProcessToFilter(x []complex128) []complex128 {
	r.frame[0] = x
	r.lane.toFilter(r.frame[:], lane0, r.frame[:])
	r.frame[0] = nil
	return x
}

// ProcessFromFilter runs the remainder of the chain — channel-select filter,
// AGC, ADC and decimation — on a waveform produced by ProcessToFilter. x is
// only read; the returned slice is owned by the receiver (reused by the next
// Process or ProcessFromFilter call).
func (r *Receiver) ProcessFromFilter(x []complex128) []complex128 {
	return r.oneLane(x, false)
}

// lane0 names the receiver's one lane.
var lane0 = []int{0}

// oneLane continues lane 0's packet with x, from the antenna (front) or
// from the pre-filter waveform, into the lane receiver's own output and
// returns it.
func (r *Receiver) oneLane(x []complex128, front bool) []complex128 {
	r.frame[0] = x
	r.lane.outs = r.lane.run(r.lane.outs, lane0, r.frame[:], front, false)
	r.frame[0] = nil
	return r.lane.outs[0]
}

// Reset starts a packet: the noise and LO streams restart from their seeds
// and every filter, the AGC gain and estimator, the ADC clip count and the
// decimation phase from their initial states. The AGC resync counter
// carries (see kernels.AGCResyncInterval).
func (r *Receiver) Reset() {
	r.lane.restart()
	r.lane.resetLanes(lane0)
}

// BlockNames lists the processing chain for documentation and probes.
func (r *Receiver) BlockNames() []string {
	names := []string{r.cfg.LNA.Name, r.cfg.Mixer1.Name}
	if r.dcBlock != nil {
		names = append(names, "HPF")
	}
	names = append(names, r.cfg.Mixer2.Name)
	if r.chanSel != nil {
		names = append(names, "CHEB-LPF")
	}
	names = append(names, "AGC", "ADC")
	return names
}

// IdealFrontEnd is the reference "idealized analog part" the paper contrasts
// against: unity gain, perfect channel filtering and decimation, no
// impairments. It implements the same interface as Receiver for drop-in use.
type IdealFrontEnd struct {
	oversample int
	decim      *dsp.Downsampler
	out        []complex128 // decimator output, reused across packets
}

// NewIdealFrontEnd builds a distortion-free front end for the given input
// oversampling factor.
func NewIdealFrontEnd(oversample int) (*IdealFrontEnd, error) {
	if oversample < 1 {
		return nil, fmt.Errorf("rf: ideal front end oversample %d < 1", oversample)
	}
	d, err := dsp.NewDownsampler(oversample, 0, true)
	if err != nil {
		return nil, err
	}
	return &IdealFrontEnd{oversample: oversample, decim: d}, nil
}

// Process decimates the composite signal to 20 MHz with ideal filtering.
// The returned slice is owned by the front end (reused by the next call).
func (f *IdealFrontEnd) Process(x []complex128) []complex128 {
	f.out = f.decim.ProcessInto(f.out[:0], x)
	return f.out
}

// Reset clears the decimator state.
func (f *IdealFrontEnd) Reset() { f.decim.Reset() }

// FrontEnd abstracts the analog receiver models (behavioral baseband, ideal,
// or the analog co-simulation bridge) so measurement harnesses can swap them.
type FrontEnd interface {
	// Process converts the composite antenna signal to 20 MHz baseband.
	Process(x []complex128) []complex128
	// Reset clears streaming state between packets.
	Reset()
}

var (
	_ FrontEnd = (*Receiver)(nil)
	_ FrontEnd = (*IdealFrontEnd)(nil)
)
