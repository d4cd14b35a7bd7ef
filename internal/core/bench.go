// Package core assembles the paper's verification flow: an IEEE 802.11a
// transmission system (transmitter, channel with optional adjacent-channel
// interferers, RF receiver front end at a selectable abstraction level, and
// the DSP receiver) plus the measurement harnesses that regenerate every
// figure and table of the paper's evaluation (§5).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"wlansim/internal/analog"
	"wlansim/internal/bits"
	"wlansim/internal/channel"
	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/randutil"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/seed"
	"wlansim/internal/sim"
	"wlansim/internal/units"
)

// FrontEndKind selects the abstraction level of the analog receiver model,
// mirroring the paper's three simulation setups.
type FrontEndKind int

// Supported front-end abstraction levels.
const (
	// FrontEndIdeal is the idealized analog part (perfect channel
	// filtering, no impairments) used for EVM reference measurements.
	FrontEndIdeal FrontEndKind = iota
	// FrontEndBehavioral is the complex-baseband rflib-style model inside
	// the system simulator (the pure-SPW setup).
	FrontEndBehavioral
	// FrontEndCoSim is the continuous-time analog solver (the SPW-AMS
	// co-simulation setup).
	FrontEndCoSim
	// FrontEndBlackBox is a K-model (Moult/Chen, the paper's ref [6])
	// extracted from the continuous-time solver and instantiated in the
	// system simulation: near co-simulation fidelity at system-level speed.
	// Extraction happens once per Bench; like the real flow it captures the
	// deterministic behavior only (no noise sources).
	FrontEndBlackBox
)

// String names the abstraction level.
func (k FrontEndKind) String() string {
	switch k {
	case FrontEndIdeal:
		return "ideal"
	case FrontEndBehavioral:
		return "behavioral-baseband"
	case FrontEndCoSim:
		return "analog-cosim"
	case FrontEndBlackBox:
		return "kmodel-blackbox"
	default:
		return "?"
	}
}

// InterfererSpec describes one interfering 802.11a emitter (paper §4.1: a
// duplicated transmitter shifted in frequency).
type InterfererSpec struct {
	// OffsetHz is the carrier offset (+20e6 for the first adjacent channel,
	// +40e6 for the second).
	OffsetHz float64
	// PowerDBm is the interferer's received power.
	PowerDBm float64
	// RateMbps selects the interferer's modulation (default 24).
	RateMbps int
}

// Config describes one measurement scenario.
type Config struct {
	// RateMbps is the wanted link's data rate.
	RateMbps int
	// PSDULen is the payload length per packet in octets.
	PSDULen int
	// Packets is the number of packets to simulate.
	Packets int
	// Seed makes the run reproducible.
	Seed int64
	// WantedPowerDBm is the wanted signal's received power (paper §2.2:
	// -88..-23 dBm).
	WantedPowerDBm float64
	// ChannelSNRdB, if non-nil, adds AWGN at the antenna with the given
	// in-band SNR relative to the wanted signal.
	ChannelSNRdB *float64
	// CFOHz applies a carrier frequency offset to the composite signal.
	CFOHz float64
	// MultipathTaps > 0 enables a Rayleigh channel with that many taps.
	MultipathTaps int
	// MultipathRMSSamples is the exponential delay profile constant.
	MultipathRMSSamples float64
	// DopplerHz > 0 makes the multipath channel time-varying (Jakes model).
	DopplerHz float64
	// SampleClockPPM applies a TX/RX sampling-clock offset in ppm.
	SampleClockPPM float64
	// Interferers places adjacent/non-adjacent channels.
	Interferers []InterfererSpec
	// FrontEnd selects the analog model abstraction level.
	FrontEnd FrontEndKind
	// TuneRF, if set, adjusts the receiver line-up after defaults are
	// applied (used by the parameter sweeps). The behavioral front end runs
	// it as tuned; the co-sim and black-box front ends run its
	// analog.ConfigFor mapping.
	TuneRF func(*rf.ReceiverConfig)
	// SweptFrontEndFilterOnly is a sweep harness's promise that its swept
	// front-end parameter (applied through TuneRF) only alters the behavioral
	// receiver's channel-select filter or blocks after it. TuneRF is a
	// function and cannot be content-hashed, so this explicit declaration is
	// what authorizes caching the front-end segment upstream of the filter
	// (LNA, mixers, DC block) across the sweep's points — exact because each
	// block consumes the whole frame before the next runs and every front-end
	// noise/LO stream restarts identically per packet. Only meaningful with
	// SweptStage == StageFrontEnd and FrontEnd == FrontEndBehavioral. Lanes
	// of one RunBenchBatch group that carry it start from that shared
	// pre-filter waveform instead of the antenna.
	SweptFrontEndFilterOnly bool
	// TuneCoSim, if set, adjusts the co-sim and black-box circuit
	// configuration after the TuneRF line-up is mapped: the solver settings
	// and the circuit-only fields (I/Q imbalance, DC offset) that
	// analog.ConfigFor does not map.
	TuneCoSim func(*analog.FrontEndConfig)
	// UseIdealRxTiming decodes with genie timing instead of the
	// synchronizing receiver (only valid without interferers and with the
	// ideal front end; used for the paper's EVM methodology).
	UseIdealRxTiming bool
	// HardDecisions disables soft Viterbi metrics in the DSP receiver
	// (ablation).
	HardDecisions bool
	// DisableCSI disables channel-state weighting of the soft metrics
	// (ablation).
	DisableCSI bool
	// Workers is the number of sweep points the experiment harnesses
	// evaluate concurrently (0 = all CPUs, 1 = serial). Results are
	// identical for every value: each point and each packet derives its
	// seeds from Seed via internal/seed, never from execution order.
	Workers int
	// Batch, when > 0, caps the points per lane group of every sweep
	// harness on the behavioral front end; 0 selects 8. A sweep's points
	// run in contiguous groups, at least one per two sweep workers, each as the
	// lanes of one RunBenchBatch; off the behavioral front end every group
	// is one point. Results are bit-identical for every value — grouping
	// changes wall-clock only, as the lane differential tests pin.
	Batch int
	// TargetErrors, when > 0, stops a bench run early once the accumulated
	// bit-error count reaches it (Packets stays the upper bound). Sweep
	// points record the confidence interval of the bits actually
	// simulated, so early-stopped points carry visibly wider intervals.
	TargetErrors int
	// SweptStage declares the first pipeline stage the sweep's swept
	// parameter affects (see Stage and StageParams). Stages strictly before
	// it are invariant across the sweep's points: they derive their
	// randomness from ContentSeed instead of Seed and may be served from
	// Cache. The zero value (StageTX) means everything depends on Seed —
	// the right default for standalone runs.
	SweptStage Stage
	// ContentSeed is the seed root of the invariant prefix stages (usually
	// the sweep's base seed, never the per-point derived Seed). Zero falls
	// back to Seed.
	ContentSeed int64
	// Cache, if non-nil, memoizes invariant prefix waveforms across the
	// Benches of one sweep run. Results are bit-identical with and without
	// it; only wall-clock changes.
	Cache *sim.StageCache
	// CacheBytes bounds the stage cache the sweep harnesses create (<= 0
	// selects sim.DefaultCacheBytes).
	CacheBytes int64
	// DisableStageCache makes the sweep harnesses run without a stage
	// cache (every point recomputes its full pipeline).
	DisableStageCache bool
	// OnSweepPoint, if set, is invoked by the single-series sweep harnesses
	// for each completed point, in Values order for each completed prefix
	// (sim.Sweep.OnPointDone). The point carries the raw swept value as X,
	// before any figure-axis rescaling the harness applies to the returned
	// series. The sweep service streams completed prefixes through this.
	OnSweepPoint func(measure.Point)
}

// DefaultConfig returns a baseline scenario: 24 Mbps, 100-byte packets,
// -62 dBm wanted power, behavioral front end, no interferers.
func DefaultConfig() Config {
	return Config{
		RateMbps:       24,
		PSDULen:        100,
		Packets:        10,
		Seed:           1,
		WantedPowerDBm: -62,
		FrontEnd:       FrontEndBehavioral,
	}
}

// Result summarizes one scenario run.
type Result struct {
	// Counter accumulates bit/packet error statistics over all packets.
	Counter measure.BERCounter
	// EVM is the mean decision-directed EVM over delivered packets.
	EVM measure.EVMResult
	// OversampleFactor is the composite-rate factor that was used.
	OversampleFactor int
	// FrontEnd echoes the abstraction level.
	FrontEnd FrontEndKind
	// Outcomes tallies how each packet ended.
	Outcomes PacketOutcomes
}

// PacketOutcomes counts a run's packets by how each ended; the counts sum
// to the packets run. Failed receives are classed by the rxdsp error
// classes.
type PacketOutcomes struct {
	// SyncMiss counts packets not detected or not timed (rxdsp.ErrNoSync).
	SyncMiss int
	// SignalFail counts packets whose SIGNAL field failed (rxdsp.ErrSignal).
	SignalFail int
	// WrongLength counts packets whose SIGNAL field announced another
	// length than was sent, including a DATA field announced past the end
	// of the signal (rxdsp.ErrTruncated).
	WrongLength int
	// PayloadErrors counts packets decoded with bit errors, or whose DATA
	// decode failed.
	PayloadErrors int
	// Clean counts packets decoded without a bit error.
	Clean int
}

// Total is the number of packets counted.
func (o PacketOutcomes) Total() int {
	return o.SyncMiss + o.SignalFail + o.WrongLength + o.PayloadErrors + o.Clean
}

// addFailure counts a packet whose receive failed with err.
func (o *PacketOutcomes) addFailure(err error) {
	switch {
	case errors.Is(err, rxdsp.ErrNoSync):
		o.SyncMiss++
	case errors.Is(err, rxdsp.ErrSignal):
		o.SignalFail++
	case errors.Is(err, rxdsp.ErrTruncated):
		o.WrongLength++
	default:
		o.PayloadErrors++
	}
}

// BER returns the measured bit error rate.
func (r *Result) BER() float64 { return r.Counter.BER() }

// leadInSamples is the silence/interferer-only time before the wanted packet
// at the native 20 MHz rate, letting filters and the AGC settle.
const leadInSamples = 600

// tailSamples pads after the packet so group delays don't truncate it.
const tailSamples = 300

// Bench runs measurement scenarios. The zero value is not usable; use
// NewBench. Run is a one-lane group of RunBenchBatch's packet loop, and the
// Bench keeps that loop across Run calls together with the transmitter and
// the channel buffers: the front end (the lane receiver on the behavioral
// front end), the DSP receiver, the packet slots and the channels. Every
// stateful block is reset per packet and the point's noise stream restarts
// per Run, so a repeated Run draws the same noise; only the behavioral AGC's
// resync history carries from one packet, and one Run, to the next, as in a
// receiver that keeps running. A Bench must not be shared between
// goroutines.
type Bench struct {
	cfg Config

	loop     *laneLoop // Run's one-lane group, built by the first Run
	tx       *phy.Transmitter
	rx       *rxdsp.Receiver
	irx      *rxdsp.IdealReceiver
	comp     *channel.Composer
	emitters []channel.Emitter
	interf   interfererSynth

	// Stage RNG streams. txRNG and chRNG are re-seeded per packet and per
	// stage (seed.ForStage), so each stage's realization is a pure function
	// of (stage root, packet index) — the property that makes cached stage
	// outputs order-independent; both ride the arithmetic-reseed source so
	// the per-packet re-seed computes the register directly instead of
	// walking math/rand's seeding LCG. In suffix-noise mode the noise stream
	// is sequential across the packets of one Run and restarted at the
	// point's noise seed at the top of each Run, so SNR sweeps re-draw only
	// the noise.
	txRNG    *rand.Rand
	chRNG    *rand.Rand
	noiseRNG *randutil.Rand

	// frame is the reused wanted-PPDU assembly target; scratch receives the
	// copy-on-read clone of cached waveforms before mutation.
	frame   phy.Frame
	scratch []complex128

	// keyContent caches the content-key fold of the invariant configuration
	// (one kind/noise combination per Bench, so one fold suffices).
	keyContent uint64
}

// NewBench validates the scenario.
func NewBench(cfg Config) (*Bench, error) {
	if cfg.PSDULen < 1 || cfg.PSDULen > 4095 {
		return nil, fmt.Errorf("core: PSDU length %d", cfg.PSDULen)
	}
	if cfg.Packets < 1 {
		return nil, fmt.Errorf("core: packet count %d", cfg.Packets)
	}
	if _, err := phy.ModeByRate(cfg.RateMbps); err != nil {
		return nil, err
	}
	if cfg.UseIdealRxTiming && (len(cfg.Interferers) > 0 || cfg.FrontEnd != FrontEndIdeal) {
		return nil, fmt.Errorf("core: ideal RX timing requires the ideal front end and no interferers")
	}
	for _, i := range cfg.Interferers {
		rate := i.RateMbps
		if rate == 0 {
			rate = 24
		}
		if _, err := phy.ModeByRate(rate); err != nil {
			return nil, err
		}
	}
	return &Bench{cfg: cfg}, nil
}

// oversample computes the composite oversampling factor for the scenario.
func (b *Bench) oversample() int {
	maxOffset := 0.0
	for _, i := range b.cfg.Interferers {
		if o := i.OffsetHz; o > maxOffset {
			maxOffset = o
		} else if -o > maxOffset {
			maxOffset = -o
		}
	}
	if maxOffset == 0 {
		return 1
	}
	return channel.MinOversample(maxOffset)
}

// buildFrontEnd constructs the configured analog model.
func (b *Bench) buildFrontEnd(os int) (rf.FrontEnd, error) {
	switch b.cfg.FrontEnd {
	case FrontEndIdeal:
		return rf.NewIdealFrontEnd(os)
	case FrontEndBehavioral:
		return rf.NewReceiver(b.receiverConfig(os))
	case FrontEndCoSim, FrontEndBlackBox:
		// Both circuit-level front ends run the line-up the behavioral one
		// would, sweeps' TuneRF included.
		cfg, err := analog.ConfigFor(b.receiverConfig(os))
		if err != nil {
			return nil, err
		}
		cfg.Seed = b.cfg.Seed + 7
		blackBox := b.cfg.FrontEnd == FrontEndBlackBox
		if blackBox {
			// The extraction sweeps are deterministic, and a coarser solver
			// step suffices for them and keeps the one-off cost low.
			cfg.EnableNoise = false
			cfg.LOLinewidthHz = 0
			cfg.SolverOversample = 16
		}
		if b.cfg.TuneCoSim != nil {
			b.cfg.TuneCoSim(&cfg)
		}
		detailed, err := analog.NewFrontEnd(cfg)
		if err != nil {
			return nil, err
		}
		if !blackBox {
			return detailed, nil
		}
		kCfg := rf.DefaultKModelConfig()
		kCfg.SampleRateHz = cfg.InputRateHz
		kCfg.SettleSamples = 1024
		kCfg.MeasureSamples = 1024
		kCfg.SweepStepDB = 4
		return rf.ExtractKModel(detailed, kCfg)
	default:
		return nil, fmt.Errorf("core: unknown front end %d", b.cfg.FrontEnd)
	}
}

// receiverConfig returns the tuned behavioral receiver configuration.
func (b *Bench) receiverConfig(os int) rf.ReceiverConfig {
	cfg := rf.DefaultReceiverConfig(os)
	// Calibrate the AGC starting point to the expected wanted level so the
	// loop only has to track.
	smallSignal := cfg.LNA.GainDB + cfg.Mixer1.ConversionGainDB + cfg.Mixer2.ConversionGainDB
	cfg.AGC.InitialGainDB = cfg.AGC.TargetDBm - (b.cfg.WantedPowerDBm + smallSignal)
	if b.cfg.TuneRF != nil {
		b.cfg.TuneRF(&cfg)
	}
	return cfg
}

// interfererPSDULen is the fixed payload length of interferer frames.
const interfererPSDULen = 200

// interfererSynth synthesizes interferer streams on reused buffers: one
// transmitter per rate, one payload and PPDU frame, and one stream buffer
// per interferer slot. The zero value is ready to use.
type interfererSynth struct {
	txs   map[int]*phy.Transmitter
	frame phy.Frame
	psdu  []byte
	waves [][]complex128
}

// wave produces a continuous stream of back-to-back frames covering at
// least total native samples into slot k's buffer, which it returns; the
// stream stays valid until the next wave call for slot k.
func (s *interfererSynth) wave(k, rateMbps, total int, rng *rand.Rand) ([]complex128, error) {
	if rateMbps == 0 {
		rateMbps = 24
	}
	tx := s.txs[rateMbps]
	if tx == nil {
		var err error
		if tx, err = phy.NewTransmitter(rateMbps); err != nil {
			return nil, err
		}
		if s.txs == nil {
			s.txs = make(map[int]*phy.Transmitter)
		}
		s.txs[rateMbps] = tx
	}
	for len(s.waves) <= k {
		s.waves = append(s.waves, nil)
	}
	out := s.waves[k][:0]
	for len(out) < total {
		tx.ScramblerSeed = byte(1 + rng.Intn(127))
		s.psdu = bits.RandomBytesInto(s.psdu[:0], rng, interfererPSDULen)
		if err := tx.TransmitInto(&s.frame, s.psdu); err != nil {
			return nil, err
		}
		out = append(out, s.frame.Samples...)
	}
	s.waves[k] = out
	return out[:total], nil
}

// synthTX runs StageTX for packet p: it re-seeds the TX stream, draws the
// scrambler seed and payload, and assembles the PPDU into the bench's reused
// frame. The returned psdu and frame alias bench-owned buffers valid until
// the next synthTX call.
func (b *Bench) synthTX(p int) ([]byte, *phy.Frame, error) {
	if b.txRNG == nil {
		b.txRNG = randutil.NewReseedingRand(0)
	}
	rng := b.txRNG
	rng.Seed(seed.ForStage(b.stageRoot(StageTX), int(StageTX), p))
	b.tx.ScramblerSeed = byte(1 + rng.Intn(127))
	psdu := bits.RandomBytesInto(b.frame.PSDU[:0], rng, b.cfg.PSDULen)
	if err := b.tx.TransmitInto(&b.frame, psdu); err != nil {
		return nil, nil, err
	}
	return b.frame.PSDU, &b.frame, nil
}

// composeChannel runs StageChannel for packet p: interferer synthesis,
// oversampled composition, multipath, sample-clock offset and CFO — the
// noiseless antenna waveform. The result is written over dst (pass nil for a
// fresh allocation the caller will own).
func (b *Bench) composeChannel(dst []complex128, frame *phy.Frame, os, p int) ([]complex128, error) {
	if b.chRNG == nil {
		b.chRNG = randutil.NewReseedingRand(0)
	}
	rng := b.chRNG
	rng.Seed(seed.ForStage(b.stageRoot(StageChannel), int(StageChannel), p))

	totalNative := leadInSamples + len(frame.Samples) + tailSamples
	emitters := append(b.emitters[:0], channel.Emitter{
		Samples:      frame.Samples,
		OffsetHz:     0,
		PowerDBm:     b.cfg.WantedPowerDBm,
		DelaySamples: leadInSamples,
	})
	for k, spec := range b.cfg.Interferers {
		wave, err := b.interf.wave(k, spec.RateMbps, totalNative, rng)
		if err != nil {
			return nil, err
		}
		emitters = append(emitters, channel.Emitter{
			Samples:  wave,
			OffsetHz: spec.OffsetHz,
			PowerDBm: spec.PowerDBm,
		})
	}
	b.emitters = emitters
	if b.comp == nil {
		comp, err := channel.NewComposer(os)
		if err != nil {
			return nil, err
		}
		b.comp = comp
	}
	comp := b.comp
	x, err := comp.ComposeInto(dst, emitters)
	if err != nil {
		return nil, err
	}
	// Pad to the full scenario duration (Compose sizes the output to the
	// longest emitter): the tail absorbs the analog chain's group delay so
	// the last OFDM symbols are not truncated.
	if want := totalNative * os; len(x) < want {
		if cap(x) < want {
			grown := make([]complex128, len(x), want)
			copy(grown, x)
			x = grown
		}
		pad := x[len(x):want]
		for i := range pad {
			pad[i] = 0
		}
		x = x[:want]
	}

	fs := comp.CompositeRateHz()
	if b.cfg.MultipathTaps > 0 {
		if b.cfg.DopplerHz > 0 {
			fc, err := channel.NewFadingChannel(b.cfg.MultipathTaps,
				b.cfg.MultipathRMSSamples, b.cfg.DopplerHz, fs, rng.Int63())
			if err != nil {
				return nil, err
			}
			fc.Process(x)
		} else {
			mp, err := channel.NewRayleighChannel(b.cfg.MultipathTaps, b.cfg.MultipathRMSSamples, rng.Int63())
			if err != nil {
				return nil, err
			}
			mp.Process(x)
		}
	}
	if b.cfg.SampleClockPPM != 0 {
		sco, err := channel.NewSampleClockOffset(b.cfg.SampleClockPPM)
		if err != nil {
			return nil, err
		}
		x = sco.Process(x)
	}
	if b.cfg.CFOHz != 0 {
		channel.NewCFO(b.cfg.CFOHz, fs, rng.Float64()).Process(x)
	}
	return x, nil
}

// addNoise runs StageNoise: white noise across the composite band so the
// in-band (20 MHz) SNR equals the requested value, drawn from the given
// stream.
func (b *Bench) addNoise(x []complex128, os int, rng *randutil.Rand) {
	wantedW := units.DBmToWatts(b.cfg.WantedPowerDBm)
	noiseW := wantedW / units.DBToLinear(*b.cfg.ChannelSNRdB) * float64(os)
	channel.AWGNFrom(noiseW, rng).AddTo(x)
}

// suffixNoise reports whether the antenna noise belongs to the point-variant
// suffix (drawn from the sequential per-Run stream) rather than the cached
// invariant prefix (drawn from a per-packet stage stream).
func (b *Bench) suffixNoise() bool {
	return b.cfg.ChannelSNRdB != nil && b.cfg.SweptStage <= StageNoise
}

// preFilterPrefix reports whether the cached prefix may extend through the
// behavioral front end up to (but excluding) the channel-select filter. The
// sweep harness vouches via SweptFrontEndFilterOnly that the swept parameter
// only touches the filter or later blocks; the predicate itself depends on
// configuration alone, never on cache state.
func (b *Bench) preFilterPrefix() bool {
	return b.cfg.SweptStage == StageFrontEnd &&
		b.cfg.SweptFrontEndFilterOnly &&
		b.cfg.FrontEnd == FrontEndBehavioral
}

// antennaNoise reports whether the antenna prefix includes the noise: only
// when it is invariant too (front-end sweeps with an explicit channel SNR).
func (b *Bench) antennaNoise() bool {
	return b.cfg.ChannelSNRdB != nil && !b.suffixNoise()
}

// fullPrefix computes TX + channel (+ prefix noise when withNoise) for packet
// p, the antenna waveform written over dst (nil for a fresh, caller-owned
// waveform, as a cache entry needs).
func (b *Bench) fullPrefix(dst []complex128, p, os int, withNoise bool) (stageEntry, error) {
	psdu, frame, err := b.synthTX(p)
	if err != nil {
		return stageEntry{}, err
	}
	wave, err := b.composeChannel(dst, frame, os, p)
	if err != nil {
		return stageEntry{}, err
	}
	if withNoise {
		if b.noiseRNG == nil {
			b.noiseRNG = randutil.NewRandDirect(0)
		}
		b.noiseRNG.Seed(seed.ForStage(b.stageRoot(StageNoise), int(StageNoise), p))
		b.addNoise(wave, os, b.noiseRNG)
	}
	return stageEntry{refBits: bits.FromBytes(psdu), wave: wave}, nil
}

// Run simulates the configured number of packets and returns the measured
// statistics. The pipeline is the five-stage chain documented on Stage; each
// packet's prefix (the stages before Config.SweptStage) may be served from
// Config.Cache, with identical results either way. Run is a one-lane group
// of RunBenchBatch's packet loop, on any front end; the Bench keeps that
// loop for its next Run.
func (b *Bench) Run() (*Result, error) {
	if b.loop == nil {
		loop, err := newLaneLoop([]*Bench{b})
		if err != nil {
			return nil, err
		}
		b.loop = loop
	}
	results, err := b.loop.run()
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// evmAccum accumulates per-packet decision-directed EVM measurements across
// one run; finish folds the accumulation into the result.
type evmAccum struct {
	acc     float64
	symbols int
}

func (e *evmAccum) finish(res *Result) {
	if e.symbols > 0 {
		res.EVM = measure.EVMResult{
			RMS:     math.Sqrt(e.acc / float64(e.symbols)),
			Symbols: e.symbols,
		}
	}
}

// accountPacket folds one packet's receive outcome into the result and EVM
// accumulator, returning whether the configured error target is reached.
func (b *Bench) accountPacket(pkt *rxdsp.PacketResult, rxErr error, refBits []byte, mode phy.Mode, res *Result, evm *evmAccum) bool {
	if rxErr != nil {
		res.Outcomes.addFailure(rxErr)
		res.Counter.AddLostPacket(len(refBits))
		return b.targetReached(res.Counter.Errors)
	}
	before := res.Counter.Errors
	res.Counter.AddPacket(refBits, bits.FromBytes(pkt.PSDU))
	switch {
	case pkt.Signal.Length*8 != len(refBits):
		res.Outcomes.WrongLength++
	case res.Counter.Errors > before:
		res.Outcomes.PayloadErrors++
	default:
		res.Outcomes.Clean++
	}
	if ev, err := measure.EVM(pkt.EqualizedCarriers, mode.Modulation); err == nil {
		evm.acc += ev.RMS * ev.RMS * float64(ev.Symbols)
		evm.symbols += ev.Symbols
	}
	return b.targetReached(res.Counter.Errors)
}

// targetReached reports whether a run with the given bit-error count has
// reached the configured TargetErrors and stops.
func (b *Bench) targetReached(errors int) bool {
	return b.cfg.TargetErrors > 0 && errors >= b.cfg.TargetErrors
}
