// Package wlansim is the public API of the WLAN system-level verification
// library: a complete IEEE 802.11a physical layer, behavioral models of the
// double-conversion RF receiver front end at three abstraction levels
// (ideal, complex-baseband behavioral, continuous-time analog co-simulation),
// radio channel models with adjacent-channel interferers, and the
// measurement harnesses (BER, EVM, spectrum, run-time comparison) that
// reproduce the evaluation of "Verification of the RF Subsystem within
// Wireless LAN System Level Simulation" (DATE 2003).
//
// Quick start:
//
//	cfg := wlansim.DefaultConfig()
//	bench, err := wlansim.NewBench(cfg)
//	if err != nil { ... }
//	res, err := bench.Run()
//	fmt.Println(res.Counter.String(), res.EVM)
//
// The deeper layers are exposed as curated aliases: the 802.11a transmitter
// and receiver (Transmitter, Receiver), the RF blocks (ReceiverConfig,
// AmplifierConfig, ...), the channel (Emitter, Composer) and the analog
// solver (AnalogFrontEndConfig).
package wlansim

import (
	"wlansim/internal/analog"
	"wlansim/internal/channel"
	"wlansim/internal/core"
	"wlansim/internal/dsp"
	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/trace"
)

// Scenario configuration and measurement bench (the paper's verification
// flow).
type (
	// Config describes one measurement scenario (rate, packets, power,
	// interferers, front-end abstraction level).
	Config = core.Config
	// Bench runs a scenario and measures BER/EVM.
	Bench = core.Bench
	// Result is the outcome of a bench run.
	Result = core.Result
	// FrontEndKind selects the analog model abstraction level.
	FrontEndKind = core.FrontEndKind
	// InterfererSpec places an interfering 802.11a emitter.
	InterfererSpec = core.InterfererSpec
	// TimingRow is one row of the reproduced Table 2.
	TimingRow = core.TimingRow
	// NoiseArtifactResult captures the co-simulation noise artifact.
	NoiseArtifactResult = core.NoiseArtifactResult
)

// Front-end abstraction levels.
const (
	FrontEndIdeal      = core.FrontEndIdeal
	FrontEndBehavioral = core.FrontEndBehavioral
	FrontEndCoSim      = core.FrontEndCoSim
	FrontEndBlackBox   = core.FrontEndBlackBox
)

// Scenario constructors and experiment harnesses.
var (
	// DefaultConfig returns a baseline 24 Mbps scenario.
	DefaultConfig = core.DefaultConfig
	// NewBench validates a scenario.
	NewBench = core.NewBench
	// Figure5Config and FilterBandwidthSweep reproduce Figure 5.
	Figure5Config        = core.Figure5Config
	FilterBandwidthSweep = core.FilterBandwidthSweep
	// Figure6Config and CompressionPointSweep reproduce Figure 6.
	Figure6Config         = core.Figure6Config
	CompressionPointSweep = core.CompressionPointSweep
	// IP3Sweep reproduces the IIP3 sweep of §5.1.
	IP3Sweep = core.IP3Sweep
	// SpectrumExperiment reproduces Figure 4.
	SpectrumExperiment = core.SpectrumExperiment
	// EVMvsSNR reproduces the §5.2 EVM methodology.
	EVMvsSNR = core.EVMvsSNR
	// TimingComparison reproduces Table 2.
	TimingComparison = core.TimingComparison
	// NoiseArtifactExperiment reproduces the §4.3 noise artifact.
	NoiseArtifactExperiment = core.NoiseArtifactExperiment
	// AdjacentChannelSpec / SecondAdjacentChannelSpec build the paper's
	// interferer levels.
	AdjacentChannelSpec       = core.AdjacentChannelSpec
	SecondAdjacentChannelSpec = core.SecondAdjacentChannelSpec
	// StandardsTableText renders Table 1.
	StandardsTableText = core.StandardsTableText
	// WaterfallBERvsSNR produces per-mode BER vs SNR curves.
	WaterfallBERvsSNR = core.WaterfallBERvsSNR
	// SensitivitySearch bisects the receiver sensitivity.
	SensitivitySearch = core.SensitivitySearch
	// InputRangeCheck verifies the paper's -88..-23 dBm input range.
	InputRangeCheck = core.InputRangeCheck
	// EVMBudget decomposes link EVM per analog impairment.
	EVMBudget = core.EVMBudget
	// MeasureACR / ACRReport measure adjacent channel rejection against the
	// clause-17.3.10.2 requirements.
	MeasureACR = core.MeasureACR
	ACRReport  = core.ACRReport
	FormatACR  = core.FormatACR
	// SpectralRegrowthSweep measures PA backoff against the transmit mask.
	SpectralRegrowthSweep = core.SpectralRegrowthSweep
	RequiredBackoffDB     = core.RequiredBackoffDB
	// PAPRCCDF computes the envelope peak-to-average CCDF.
	PAPRCCDF = measure.PAPRCCDF
	// RunVerificationReport executes the aggregated sign-off suite.
	RunVerificationReport = core.RunVerificationReport
	// FormatEVMBudget renders the budget table.
	FormatEVMBudget = core.FormatEVMBudget
)

// EVMBudgetRow is one line of the per-impairment EVM budget.
type EVMBudgetRow = core.EVMBudgetRow

// ACRResult is a measured adjacent-channel-rejection verdict.
type ACRResult = core.ACRResult

// VerificationReport is the aggregated sign-off summary.
type VerificationReport = core.VerificationReport

// SystemGraph is the SPW-style block-diagram realization of a scenario
// (built with (*Bench).BuildSystemGraph).
type SystemGraph = core.SystemGraph

// InputRangeResult reports the input-range corner verification.
type InputRangeResult = core.InputRangeResult

// IEEE 802.11a physical layer.
type (
	// Mode is one clause-17 transmission rate.
	Mode = phy.Mode
	// Frame is an assembled PPDU with its waveform.
	Frame = phy.Frame
	// Transmitter builds PPDUs.
	Transmitter = phy.Transmitter
	// SignalField is the decoded PLCP SIGNAL content.
	SignalField = phy.SignalField
)

// SpectrumMask is the clause-17 transmit spectral mask.
type SpectrumMask = phy.SpectrumMask

// PHY helpers.
var (
	// Modes lists all eight 802.11a rates.
	Modes = phy.Modes
	// ModeByRate looks a mode up by its Mbps value.
	ModeByRate = phy.ModeByRate
	// NewTransmitter builds a transmitter for a rate.
	NewTransmitter = phy.NewTransmitter
	// TransmitMask returns the clause-17.3.9.2 spectral mask.
	TransmitMask = phy.TransmitMask
)

// DSP receiver.
type (
	// PacketReceiver is the synchronizing 802.11a receiver.
	PacketReceiver = rxdsp.Receiver
	// IdealReceiver decodes with genie timing (EVM methodology).
	IdealReceiver = rxdsp.IdealReceiver
	// PacketResult is a decoded packet with diagnostics.
	PacketResult = rxdsp.PacketResult
)

// NewPacketReceiver returns a synchronizing receiver with default settings.
var NewPacketReceiver = rxdsp.NewReceiver

// RF front-end models.
type (
	// ReceiverConfig parameterizes the behavioral double-conversion
	// receiver.
	ReceiverConfig = rf.ReceiverConfig
	// RFReceiver is the behavioral front end.
	RFReceiver = rf.Receiver
	// FrontEnd abstracts the analog model implementations.
	FrontEnd = rf.FrontEnd
	// AmplifierConfig, MixerConfig, AGCConfig, ADCConfig parameterize the
	// individual blocks.
	AmplifierConfig = rf.AmplifierConfig
	MixerConfig     = rf.MixerConfig
	AGCConfig       = rf.AGCConfig
	ADCConfig       = rf.ADCConfig
	// CascadeStage and CascadeResult support Friis line-up analysis.
	CascadeStage  = rf.Stage
	CascadeResult = rf.CascadeResult
	// AnalogFrontEndConfig parameterizes the co-simulation solver. A Bench
	// derives its circuit parameters from the ReceiverConfig line-up (TuneRF
	// included); TuneCoSim adjusts the solver and circuit-only fields.
	AnalogFrontEndConfig = analog.FrontEndConfig
)

// Characterizer drives tone-test benches against RF blocks (the
// SpectreRF-style analyses); BlockReport is the resulting datasheet.
type (
	Characterizer = rf.Characterizer
	BlockReport   = rf.BlockReport
	// CTBench is the passband tone bench for continuous-time stages.
	CTBench = analog.CTBench
)

// RF constructors.
var (
	// NewCharacterizer builds a tone bench at a sample rate.
	NewCharacterizer = rf.NewCharacterizer
	// NewCTBench builds a passband tone bench at a solver rate.
	NewCTBench = analog.NewCTBench
	// DefaultReceiverConfig returns the paper-tuned line-up.
	DefaultReceiverConfig = rf.DefaultReceiverConfig
	// NewRFReceiver assembles the behavioral front end.
	NewRFReceiver = rf.NewReceiver
	// NewIdealFrontEnd builds the distortion-free reference.
	NewIdealFrontEnd = rf.NewIdealFrontEnd
	// NewAnalogFrontEnd builds the co-simulation solver.
	NewAnalogFrontEnd = analog.NewFrontEnd
	// DefaultAnalogFrontEndConfig returns the circuit model of
	// DefaultReceiverConfig(1) with the solver defaults.
	DefaultAnalogFrontEndConfig = analog.DefaultFrontEndConfig
	// Cascade computes Friis gain/NF/IIP3 of a line-up.
	Cascade = rf.Cascade
	// NewAmplifier / NewMixer build individual behavioral RF blocks.
	NewAmplifier = rf.NewAmplifier
	NewMixer     = rf.NewMixer
	// ExtractKModel extracts a black-box (K-model) from a detailed front
	// end; DefaultKModelConfig returns extraction settings.
	ExtractKModel       = rf.ExtractKModel
	DefaultKModelConfig = rf.DefaultKModelConfig
)

// KModel is an extracted black-box front end (the paper's ref [6] flow).
type KModel = rf.KModel

// KModelConfig controls black-box extraction.
type KModelConfig = rf.KModelConfig

// Radio channel.
type (
	// Emitter is one signal entering the air interface.
	Emitter = channel.Emitter
	// Composer mixes emitters onto an oversampled baseband grid.
	Composer = channel.Composer
	// Multipath is a frequency-selective block-fading channel.
	Multipath = channel.Multipath
	// FadingChannel is the time-varying (Jakes-Doppler) Rayleigh channel.
	FadingChannel = channel.FadingChannel
	// SampleClockOffset models TX/RX sampling-clock mismatch in ppm.
	SampleClockOffset = channel.SampleClockOffset
)

// Channel constructors.
var (
	// NewComposer builds an interferer composer.
	NewComposer = channel.NewComposer
	// NewRayleighChannel draws a Rayleigh multipath realization.
	NewRayleighChannel = channel.NewRayleighChannel
	// NewFadingChannel draws a time-varying Rayleigh channel.
	NewFadingChannel = channel.NewFadingChannel
	// NewSampleClockOffset builds a ppm-scale resampling impairment.
	NewSampleClockOffset = channel.NewSampleClockOffset
	// NewCFO builds a carrier-frequency-offset impairment.
	NewCFO = channel.NewCFO
	// AddNoiseSNR adds AWGN at a given SNR.
	AddNoiseSNR = channel.AddNoiseSNR
)

// Measurements.
type (
	// BERCounter accumulates bit/packet error statistics.
	BERCounter = measure.BERCounter
	// EVMResult is an error-vector-magnitude measurement.
	EVMResult = measure.EVMResult
	// Series and Figure hold sweep results.
	Series = measure.Series
	Figure = measure.Figure
	// PSD is a power spectral density estimate.
	PSD = dsp.PSD
)

// Measurement helpers.
var (
	// EVM measures decision-directed EVM on equalized carriers.
	EVM = measure.EVM
	// SeriesDBm converts a PSD to a printable series.
	SeriesDBm = measure.SeriesDBm
	// ChannelPowers integrates the 20 MHz channel raster of a PSD.
	ChannelPowers = measure.ChannelPowers
)

// Waveform capture I/O (the SPW flow's waveform-file equivalent).
type TraceHeader = trace.Header

// WriteTrace / ReadTrace store and load complex baseband captures.
var (
	WriteTrace = trace.Write
	ReadTrace  = trace.Read
)
