package main

import (
	"errors"
	"fmt"
	"math/rand"

	"wlansim/internal/analog"
	"wlansim/internal/bits"
	"wlansim/internal/channel"
	"wlansim/internal/core"
	"wlansim/internal/dsp"
	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/phy/viterbi"
	"wlansim/internal/randutil"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/seed"
	"wlansim/internal/units"
)

// This file rebuilds core.Bench's packet pipeline stage by stage from the
// layers' exported constructors, so the traced run can time each layer call
// from outside the library. It follows the harness's own configuration —
// stage seeding, lead-in and tail padding, interferer frames, the AGC
// calibration of the behavioral front end and the co-sim seed offset — so a
// rebuilt packet is bit-identical to the Bench's and every rebuilt sweep point
// is checked against the point the library returned.

// Bench framing constants (core/bench.go): silence before the wanted packet
// at the native rate, padding after it, and the interferer frame payload.
const (
	leadInSamples     = 600
	tailSamples       = 300
	interfererPSDULen = 200
	// dcNotchCutoff is rxdsp.Receiver's DC-notch corner (fraction of fs).
	dcNotchCutoff = 0.002
)

// oversample mirrors Bench.oversample: the composite-rate factor the
// farthest interferer needs.
func oversample(cfg core.Config) int {
	maxOffset := 0.0
	for _, i := range cfg.Interferers {
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

// stageRoot mirrors Bench.stageRoot: stages before the swept one draw from
// ContentSeed, the rest from the point's Seed.
func stageRoot(cfg core.Config, s core.Stage) int64 {
	if s < cfg.SweptStage && cfg.ContentSeed != 0 {
		return cfg.ContentSeed
	}
	return cfg.Seed
}

// behavioralFrontEnd builds the rf.Receiver a Bench builds for cfg.
func behavioralFrontEnd(cfg core.Config, os int) (*rf.Receiver, error) {
	rc := rf.DefaultReceiverConfig(os)
	smallSignal := rc.LNA.GainDB + rc.Mixer1.ConversionGainDB + rc.Mixer2.ConversionGainDB
	rc.AGC.InitialGainDB = rc.AGC.TargetDBm - (cfg.WantedPowerDBm + smallSignal)
	if cfg.TuneRF != nil {
		cfg.TuneRF(&rc)
	}
	return rf.NewReceiver(rc)
}

// coSimFrontEnd builds the analog.FrontEnd a Bench builds for cfg.
func coSimFrontEnd(cfg core.Config, os int) (*analog.FrontEnd, error) {
	ac := analog.DefaultFrontEndConfig()
	ac.InputRateHz = 20e6 * float64(os)
	ac.Seed = cfg.Seed + 7
	if cfg.TuneCoSim != nil {
		cfg.TuneCoSim(&ac)
	}
	return analog.NewFrontEnd(ac)
}

// pipe is one point configuration's rebuilt pipeline: transmitter, channel
// composer and DSP receiver with their scratch.
type pipe struct {
	cfg  core.Config
	os   int
	mode phy.Mode

	tx           *phy.Transmitter
	frame        phy.Frame
	txRNG, chRNG *rand.Rand
	comp         *channel.Composer
	emitters     []channel.Emitter

	rx    *rxdsp.Receiver
	det   *rxdsp.Detector
	notch *dsp.IIR
	buf   []complex128
	work  []complex128
	dec   softDecoder
}

func newPipe(cfg core.Config) (*pipe, error) {
	mode, err := phy.ModeByRate(cfg.RateMbps)
	if err != nil {
		return nil, err
	}
	os := oversample(cfg)
	comp, err := channel.NewComposer(os)
	if err != nil {
		return nil, err
	}
	notch, err := dsp.DesignDCBlock(dcNotchCutoff)
	if err != nil {
		return nil, err
	}
	rx := rxdsp.NewReceiver()
	rx.ReuseBuffers = true
	rx.DeferDataDecode = true
	return &pipe{
		cfg: cfg, os: os, mode: mode,
		tx:    &phy.Transmitter{Mode: mode},
		txRNG: randutil.NewReseedingRand(0),
		chRNG: randutil.NewReseedingRand(0),
		comp:  comp,
		rx:    rx,
		det:   rxdsp.NewDetector(),
		notch: notch,
		dec:   softDecoder{vit: viterbi.New()},
	}, nil
}

// transmit runs packet p's TX stage (Bench.synthTX) and returns the
// reference payload bits and the frame waveform (valid until the next call).
func (p *pipe) transmit(tr *tracer, pkt int) ([]byte, []complex128, error) {
	rng := p.txRNG
	rng.Seed(seed.ForStage(stageRoot(p.cfg, core.StageTX), int(core.StageTX), pkt))
	p.tx.ScramblerSeed = byte(1 + rng.Intn(127))
	psdu := bits.RandomBytesInto(p.frame.PSDU[:0], rng, p.cfg.PSDULen)
	s := tr.begin("phy.tx")
	err := p.tx.TransmitInto(&p.frame, psdu)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	return bits.FromBytes(psdu), p.frame.Samples, nil
}

// compose runs packet p's channel stage (Bench.composeChannel without the
// multipath, clock and CFO impairments, which no workload enables) and
// returns a freshly allocated antenna waveform.
func (p *pipe) compose(tr *tracer, pkt int, frame []complex128) ([]complex128, error) {
	if p.cfg.MultipathTaps > 0 || p.cfg.SampleClockPPM != 0 || p.cfg.CFOHz != 0 {
		return nil, errors.New("pipeline rebuild covers no channel impairments")
	}
	s := tr.begin("channel.compose")
	defer tr.end(s)
	rng := p.chRNG
	rng.Seed(seed.ForStage(stageRoot(p.cfg, core.StageChannel), int(core.StageChannel), pkt))
	totalNative := leadInSamples + len(frame) + tailSamples
	p.emitters = append(p.emitters[:0], channel.Emitter{
		Samples:      frame,
		PowerDBm:     p.cfg.WantedPowerDBm,
		DelaySamples: leadInSamples,
	})
	for _, spec := range p.cfg.Interferers {
		wave, err := interfererWaveform(spec.RateMbps, totalNative, rng)
		if err != nil {
			return nil, err
		}
		p.emitters = append(p.emitters, channel.Emitter{Samples: wave, OffsetHz: spec.OffsetHz, PowerDBm: spec.PowerDBm})
	}
	x, err := p.comp.ComposeInto(nil, p.emitters)
	if err != nil {
		return nil, err
	}
	if want := totalNative * p.os; len(x) < want {
		x = append(x, make([]complex128, want-len(x))...)
	}
	return x, nil
}

// interfererWaveform mirrors core's interferer synthesis: back-to-back
// frames with random scrambler seeds and payloads, cut to total samples.
func interfererWaveform(rateMbps, total int, rng *rand.Rand) ([]complex128, error) {
	if rateMbps == 0 {
		rateMbps = 24
	}
	tx, err := phy.NewTransmitter(rateMbps)
	if err != nil {
		return nil, err
	}
	var out []complex128
	for len(out) < total {
		tx.ScramblerSeed = byte(1 + rng.Intn(127))
		frame, err := tx.Transmit(bits.RandomBytes(rng, interfererPSDULen))
		if err != nil {
			return nil, err
		}
		out = append(out, frame.Samples...)
	}
	return out[:total], nil
}

// addNoise runs the antenna AWGN stage (Bench.addNoise) from rng.
func addNoise(tr *tracer, cfg core.Config, os int, x []complex128, rng *randutil.Rand) {
	wantedW := units.DBmToWatts(cfg.WantedPowerDBm)
	noiseW := wantedW / units.DBToLinear(*cfg.ChannelSNRdB) * float64(os)
	s := tr.begin("channel.noise")
	channel.AWGNFrom(noiseW, rng).AddTo(x)
	tr.end(s)
}

// packetFate is how a packet left the receive chain.
type packetFate int

const (
	delivered packetFate = iota
	lostInSync
	lostAfterSync
)

// receive runs the DSP receiver over one packet's baseband in two timed
// parts: the synchronization front half (DC notch, detection, coarse CFO,
// fine timing, fine CFO, channel estimation) rebuilt from rxdsp's exported
// calls, then the deferred-decode Receive, whose time minus the former is
// the equalization. A delivered packet carries the equalized carriers, CSI
// and SIGNAL field for the bit-level decode. The error reports only a
// rebuild that disagrees with the receiver.
func (p *pipe) receive(tr *tracer, baseband []complex128) (*rxdsp.PacketResult, packetFate, error) {
	s := tr.begin("rxdsp.sync")
	syncErr := p.sync(baseband)
	tr.end(s)
	r := tr.begin("rxdsp.receive")
	p.rx.Reset()
	pkt, rerr := p.rx.Receive(baseband, 0)
	tr.end(r)
	switch {
	case syncErr != nil && rerr == nil:
		return nil, 0, fmt.Errorf("rebuilt sync failed (%v) where rxdsp.Receive succeeded", syncErr)
	case syncErr != nil:
		return nil, lostInSync, nil
	case rerr != nil:
		return nil, lostAfterSync, nil
	}
	return pkt, delivered, nil
}

func (p *pipe) sync(x []complex128) error {
	p.buf = append(p.buf[:0], x...)
	p.notch.Reset()
	p.notch.Process(p.buf)
	d, err := p.det.Detect(p.buf, 0)
	if err != nil {
		return err
	}
	p.work = append(p.work[:0], p.buf[d.StartIndex:]...)
	dsp.NewOscillator(-d.CoarseCFO, 0).MixInto(p.work)
	t1, err := rxdsp.FineTiming(p.work, phy.ShortPreambleLen+32-80, 160)
	if err != nil {
		return err
	}
	fine, err := rxdsp.FineCFO(p.work, t1)
	if err != nil {
		return err
	}
	dsp.NewOscillator(-fine, 0).MixInto(p.work)
	_, err = rxdsp.EstimateChannel(p.work, t1)
	return err
}

// receiveAndDecode is the sequential tail of a packet: DSP receive, then
// the bit-level decode. A delivered packet comes back with its PSDU.
func (p *pipe) receiveAndDecode(tr *tracer, baseband []complex128) (*rxdsp.PacketResult, []byte, packetFate, error) {
	pkt, fate, err := p.receive(tr, baseband)
	if err != nil || fate != delivered {
		return nil, nil, fate, err
	}
	psdu, err := p.dec.decode(tr, pkt)
	if err != nil {
		return nil, nil, lostAfterSync, nil
	}
	return pkt, psdu, delivered, nil
}

// softDecoder is the bit-level receive chain (phy.PacketDecoder's
// sequence) rebuilt from phy's exported calls: CSI-weighted soft demapping,
// deinterleaving and depuncturing, then Viterbi and descrambling.
type softDecoder struct {
	sym, soft, dep []float64
	decoded        []byte
	vit            *viterbi.Decoder
}

// decode returns the PSDU of a deferred packet.
func (d *softDecoder) decode(tr *tracer, pkt *rxdsp.PacketResult) ([]byte, error) {
	mode, psduLen := pkt.Signal.Mode, pkt.Signal.Length
	if psduLen < 1 {
		return nil, fmt.Errorf("psduLen %d invalid", psduLen)
	}
	s := tr.begin("phy.demap")
	if need := len(pkt.EqualizedCarriers) * mode.NCBPS(); cap(d.soft) < need {
		d.soft = make([]float64, 0, need)
	}
	soft := d.soft[:0]
	for n, c := range pkt.EqualizedCarriers {
		var w []float64
		if pkt.CSI != nil {
			w = pkt.CSI[n]
		}
		m, err := phy.DemapSoftAppend(d.sym[:0], c, mode.Modulation, w)
		if err != nil {
			tr.end(s)
			return nil, err
		}
		d.sym = m
		chunk, err := phy.DeinterleaveSoftInto(soft[len(soft):], m, mode)
		if err != nil {
			tr.end(s)
			return nil, err
		}
		soft = soft[:len(soft)+len(chunk)]
	}
	d.soft = soft
	dep, err := phy.DepunctureAppend(d.dep[:0], soft, mode.CodeRate)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	d.dep = dep
	v := tr.begin("viterbi.decode")
	decoded, err := d.vit.DecodeSoftInto(d.decoded, dep)
	tr.end(v)
	if err != nil {
		return nil, err
	}
	d.decoded = decoded
	need := phy.ServiceBits + psduLen*8
	if len(decoded) < need {
		return nil, fmt.Errorf("decoded %d bits, need %d", len(decoded), need)
	}
	phy.NewScrambler(scramblerSeed(decoded[:7])).Process(decoded[:need])
	return bits.ToBytes(decoded[phy.ServiceBits:need])
}

// scramblerSeed finds the transmit scrambler seed from the first seven
// received bits (the scrambled all-zero SERVICE prefix).
func scramblerSeed(first7 []byte) byte {
	for s := byte(1); s < 128; s++ {
		sc := phy.NewScrambler(s)
		ok := true
		for _, want := range first7 {
			if sc.NextBit() != want&1 {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	return 0x7F
}

// account folds one packet's outcome into the counter the way the Bench
// does: a lost packet counts half its bits in error.
func account(ctr *measure.BERCounter, refBits, psdu []byte, fate packetFate) {
	if fate != delivered {
		ctr.AddLostPacket(len(refBits))
		return
	}
	ctr.AddPacket(refBits, bits.FromBytes(psdu))
}
