package rf

import (
	"fmt"
	"math"
	"testing"

	"wlansim/internal/dsp"
	"wlansim/internal/kernels"
	"wlansim/internal/units"
)

// oracleReceiver is the sequential reference of the behavioral front end:
// the double-conversion chain as Receiver ran it before every call became a
// one-lane call of its lane receiver. Every block consumes the whole frame
// before the next one runs — the LNA's frame loop (oracleAmplify), each
// mixer's planar pass (oracleMix), the DC block, the channel-select filter,
// the AGC's per-sample control law on scalar state, the ADC sample by sample
// and a decimator without anti-alias filter. The lane differential tests and
// TestReceiverMatchesOracle pin the production chain to it bit for bit.
type oracleReceiver struct {
	cfg     ReceiverConfig
	lna     *Amplifier
	mixer1  *Mixer
	dcBlock *DCBlock
	mixer2  *Mixer
	chanSel *ChebyshevLowpass
	agc     *oracleAGC
	adc     *ADC
	decim   *dsp.Downsampler
	out     []complex128 // decimator output, reused across packets
	xv      kernels.Vec  // planar scratch for the mixer passes
	nv      kernels.Vec  // noise-plane scratch of the LNA and mixer passes
}

// newOracleReceiver validates the configuration and assembles the chain, as
// NewReceiver did.
func newOracleReceiver(cfg ReceiverConfig) (*oracleReceiver, error) {
	if cfg.Oversample < 1 {
		return nil, fmt.Errorf("rf: receiver oversample %d < 1", cfg.Oversample)
	}
	if cfg.SampleRateHz <= 0 {
		return nil, fmt.Errorf("rf: receiver sample rate %g", cfg.SampleRateHz)
	}
	cfg = cfg.asBuilt()
	r := &oracleReceiver{cfg: cfg}
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
	if r.agc, err = newOracleAGC(cfg.AGC); err != nil {
		return nil, err
	}
	if r.adc, err = NewADC(cfg.ADC); err != nil {
		return nil, err
	}
	// The ADC samples at 20 MHz: decimation with NO extra anti-alias
	// filter — channel selection is the analog Chebyshev filter's job.
	if r.decim, err = dsp.NewDownsampler(cfg.Oversample, 0, false); err != nil {
		return nil, err
	}
	return r, nil
}

// ADCClippedSamples reports ADC clipping events since the last Reset.
func (r *oracleReceiver) ADCClippedSamples() int { return r.adc.ClippedSamples() }

// Process is ProcessToFilter followed by ProcessFromFilter. The input slice
// is modified in place up to the decimation stage; the returned slice is
// reused by the next call.
func (r *oracleReceiver) Process(x []complex128) []complex128 {
	return r.ProcessFromFilter(r.ProcessToFilter(x))
}

// ProcessToFilter runs the LNA, first mixer, DC block and second mixer in
// place and returns x. Each mixer pass runs planar: one deinterleave in, one
// interleave out.
func (r *oracleReceiver) ProcessToFilter(x []complex128) []complex128 {
	oracleAmplify(r.lna, x, &r.nv)
	if len(x) == 0 {
		return x
	}
	prefillLOPair(r.mixer1, r.mixer2, len(x))
	r.xv.From(x)
	oracleMix(r.mixer1, r.xv.Re, r.xv.Im, &r.nv)
	r.xv.CopyTo(x)
	if r.dcBlock != nil {
		r.dcBlock.Process(x)
	}
	r.xv.From(x)
	oracleMix(r.mixer2, r.xv.Re, r.xv.Im, &r.nv)
	r.xv.CopyTo(x)
	return x
}

// oracleAmplify is the amplifier's frame loop as Amplifier.Process ran it on
// its own: the frame's thermal-noise draws materialized into planes from the
// one generator in re,im-per-sample order and scaled, then the memoryless
// nonlinearity per sample after the noise add.
func oracleAmplify(a *Amplifier, x []complex128, nv *kernels.Vec) {
	if a.noise == nil {
		for i, v := range x {
			x[i] = a.amplify(v)
		}
		return
	}
	nv.Grow(len(x))
	a.noise.FillNormPairs(nv.Re, nv.Im)
	kernels.ScalePlane(nv.Re, a.nsig)
	kernels.ScalePlane(nv.Im, a.nsig)
	for i, v := range x {
		x[i] = a.amplify(v + complex(nv.Re[i], nv.Im[i]))
	}
}

// oracleMix is the mixer's single-lane planar pass as Mixer.Process ran it
// on its own: the noise plane materialized and added component-wise, the LO
// trajectory filled once (or taken from a pair prefill), then the planar
// mixer kernel.
func oracleMix(m *Mixer, xr, xi []float64, nv *kernels.Vec) {
	n := len(xr)
	if m.noise != nil {
		nv.Grow(n)
		m.noise.FillNormPairs(nv.Re, nv.Im)
		kernels.ScalePlane(nv.Re, m.nsig)
		kernels.ScalePlane(nv.Im, m.nsig)
		kernels.AddPlane(xr, nv.Re)
		kernels.AddPlane(xi, nv.Im)
	}
	mur, mui := real(m.mu), imag(m.mu)
	nur, nui := real(m.nu), imag(m.nu)
	dcr, dci := real(m.dc), imag(m.dc)
	if m.lo == nil {
		kernels.MixApply(xr, xi, mur, mui, nur, nui, m.g, dcr, dci)
		return
	}
	if m.loFilled && m.lov.Len() == n {
		m.loFilled = false
	} else {
		m.lov.Grow(n)
		m.lo.fill(m.lov.Re, m.lov.Im)
	}
	kernels.MixApplyLO(xr, xi, m.lov.Re, m.lov.Im, mur, mui, nur, nui, m.g, dcr, dci)
}

// ProcessFromFilter runs the channel-select filter, AGC, ADC and decimation
// on a ProcessToFilter waveform, in place up to the decimator.
func (r *oracleReceiver) ProcessFromFilter(x []complex128) []complex128 {
	if r.chanSel != nil {
		x = r.chanSel.Process(x)
	}
	x = r.agc.Process(x)
	for i, v := range x {
		x[i] = r.adc.ProcessSample(v)
	}
	r.out = r.decim.ProcessInto(r.out[:0], x)
	return r.out
}

// Reset clears all block states; the AGC keeps its resync counter.
func (r *oracleReceiver) Reset() {
	r.lna.Reset()
	r.mixer1.Reset()
	if r.dcBlock != nil {
		r.dcBlock.Reset()
	}
	r.mixer2.Reset()
	if r.chanSel != nil {
		r.chanSel.Reset()
	}
	r.agc.Reset()
	r.adc.Reset()
	r.decim.Reset()
}

// oracleAGC is the AGC loop as it ran before the lane receiver: the
// per-sample control law on scalar state. The loop parameters are those of
// an AGC built by NewAGC from the same configuration.
type oracleAGC struct {
	p       *AGC
	gainDB  float64
	est     float64
	gainLin float64
	resync  int
}

func newOracleAGC(cfg AGCConfig) (*oracleAGC, error) {
	p, err := NewAGC(cfg)
	if err != nil {
		return nil, err
	}
	a := &oracleAGC{p: p}
	a.Reset()
	return a, nil
}

// GainDB returns the current loop gain.
func (a *oracleAGC) GainDB() float64 { return a.gainDB }

// SetFreeze holds (true) or releases (false) the gain.
func (a *oracleAGC) SetFreeze(f bool) { a.p.SetFreeze(f) }

// Reset restores the initial gain and estimator; resync carries.
func (a *oracleAGC) Reset() {
	cfg := a.p.cfg
	a.gainDB = clamp(cfg.InitialGainDB, cfg.MinGainDB, cfg.MaxGainDB)
	a.gainLin = units.DBToVoltageGain(a.gainDB)
	a.est = units.DBmToWatts(cfg.TargetDBm)
}

// Process runs ProcessSample over the frame in place.
func (a *oracleAGC) Process(x []complex128) []complex128 {
	for i, v := range x {
		x[i] = a.ProcessSample(v)
	}
	return x
}

// ProcessSample amplifies one sample and updates the loop: the dB-domain
// control law with the linear gain tracked incrementally and the error
// logarithm skipped while a slew clamp applies.
func (a *oracleAGC) ProcessSample(x complex128) complex128 {
	p := &a.p.law
	y := complex(a.gainLin*real(x), a.gainLin*imag(x))
	if !p.Freeze {
		pw := real(y)*real(y) + imag(y)*imag(y)
		a.est += p.Alpha * (pw - a.est)
		if a.est > 0 {
			u := a.est * p.InvTarget
			var step float64
			switch {
			case u >= p.UAttack:
				step = -kernels.AGCAttackClampDB
			case u <= p.URelease:
				step = kernels.AGCReleaseClampDB
			default:
				var errDB float64
				if u > 0.5 && u < 2 {
					errDB = -oracleTenOverLn10 * oracleLnNear1(u)
				} else {
					errDB = -oracleTenOverLn10 * oracleLnWide(u)
				}
				if errDB < 0 {
					step = p.Attack * errDB
				} else {
					step = p.Release * errDB
				}
			}
			g := clamp(a.gainDB+step, p.MinGainDB, p.MaxGainDB)
			//lint:ignore floateq exact no-movement check, as in the production loop
			if g != a.gainDB {
				d := g - a.gainDB
				a.gainDB = g
				a.resync++
				if a.resync >= kernels.AGCResyncInterval || d > 2 || d < -2 {
					a.gainLin = units.DBToVoltageGain(g)
					a.resync = 0
				} else {
					a.gainLin *= oracleExpSmall(d * oracleLnTenOver20)
				}
			}
		}
	}
	return y
}

// The oracle's series and constants, as the AGC law had them when the
// oracle was frozen.
const (
	oracleLnTenOver20 = math.Ln10 / 20
	oracleTenOverLn10 = 10 / math.Ln10
)

func oracleExpSmall(x float64) float64 {
	return 1 + x*(1+x/2*(1+x/3*(1+x/4*(1+x/5))))
}

func oracleLnWide(u float64) float64 {
	m, k := math.Frexp(u)
	return oracleLnNear1(2*m) + float64(k-1)*math.Ln2
}

func oracleLnNear1(u float64) float64 {
	z := (u - 1) / (u + 1)
	z2 := z * z
	return 2 * z * (1 + z2*(1.0/3+z2*(1.0/5+z2*(1.0/7+z2*(1.0/9+z2/11)))))
}

// sameBits reports whether a and b hold the same samples bit for bit.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestReceiverMatchesOracle pins Receiver's three processing calls — each a
// one-lane call of its lane receiver — to the sequential chain bit for bit:
// Process, ProcessToFilter and ProcessFromFilter against the oracle's, with
// the ADC clip count and the AGC resync counter, over four consecutive
// packets of differing lengths on one receiver, so the resync counter
// carries across packets. Covered: oversampling 1 and 3, the receiver's
// noise on and off, the default channel filter and none
// (ChannelFilterOrder 0), and a quantized and an unquantized ADC (without
// quantization the AGC output reaches the baseband bit for bit, so a
// last-bit gain difference shows). ProcessToFilter must write into its
// argument and return it, so two packets' waveforms never share a buffer.
//
// Before the packets, each fresh receiver streams one signal in
// consecutive frames with no Reset between them, as the system graph's
// front-end block feeds it: noise and LO streams, filter delays, AGC loop,
// clip count and decimation phase all carry across calls. The frames
// include lengths that are not a multiple of the oversampling factor, and
// the calls alternate Process with the ProcessToFilter/ProcessFromFilter
// pair, which must continue the same state. The first packet's Reset then
// has to restart every block.
func TestReceiverMatchesOracle(t *testing.T) {
	lengths := []int{100, 3*laneBlock + 17, 1700, 613}
	for _, os := range []int{1, 3} {
		for _, noise := range []bool{true, false} {
			for _, order := range []int{5, 0} {
				for _, bits := range []int{10, 0} {
					cfg := DefaultReceiverConfig(os)
					cfg.DisableNoise = !noise
					cfg.ChannelFilterOrder = order
					cfg.ADC.Bits = bits
					// The AGC opens 5 dB under its ceiling, so its gain
					// moves and the resync counter runs.
					cfg.AGC.InitialGainDB = cfg.AGC.MaxGainDB - 5
					rx, err := NewReceiver(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := newOracleReceiver(cfg)
					if err != nil {
						t.Fatal(err)
					}
					stream := batchFrames(int64(10*os+order+bits), 1, 1300*os, math.Sqrt(units.DBmToWatts(-58)/2))[0]
					for f, n := range []int{200 * os, 200 * os, 7, 200*os + 2, laneBlock + 1, 200 * os} {
						where := fmt.Sprintf("os=%d noise=%v order=%d bits=%d stream frame %d", os, noise, order, bits, f)
						in := stream[:n]
						stream = stream[n:]
						var got []complex128
						if f%2 == 1 {
							got = rx.ProcessFromFilter(rx.ProcessToFilter(append([]complex128(nil), in...)))
						} else {
							got = rx.Process(in)
						}
						want := ref.Process(append([]complex128(nil), in...))
						if !sameBits(got, want) {
							t.Fatalf("%s: output differs from the oracle (len %d vs %d)", where, len(got), len(want))
						}
						if c, w := rx.lane.ClippedSamples(0), ref.ADCClippedSamples(); c != w {
							t.Fatalf("%s: clipped %d, oracle %d", where, c, w)
						}
					}
					carried := false
					for pkt, n := range lengths {
						where := fmt.Sprintf("os=%d noise=%v order=%d bits=%d pkt=%d", os, noise, order, bits, pkt)
						x := batchFrames(int64(100*os+10*order+pkt), 1, os*n, math.Sqrt(units.DBmToWatts(-58)/2))[0]

						rx.Reset()
						ref.Reset()
						got := rx.Process(append([]complex128(nil), x...))
						want := ref.Process(append([]complex128(nil), x...))
						if !sameBits(got, want) {
							t.Fatalf("%s: Process differs from the oracle (len %d vs %d)", where, len(got), len(want))
						}
						if c, w := rx.lane.ClippedSamples(0), ref.ADCClippedSamples(); c != w {
							t.Fatalf("%s: Process clipped %d, oracle %d", where, c, w)
						}

						rx.Reset()
						ref.Reset()
						in := append([]complex128(nil), x...)
						wave := rx.ProcessToFilter(in)
						if len(wave) != len(in) || (len(in) > 0 && &wave[0] != &in[0]) {
							t.Fatalf("%s: ProcessToFilter did not return its argument", where)
						}
						wantWave := ref.ProcessToFilter(append([]complex128(nil), x...))
						if !sameBits(wave, wantWave) {
							t.Fatalf("%s: ProcessToFilter differs from the oracle", where)
						}

						rx.Reset()
						ref.Reset()
						got = rx.ProcessFromFilter(append([]complex128(nil), wave...))
						want = ref.ProcessFromFilter(append([]complex128(nil), wantWave...))
						if !sameBits(got, want) {
							t.Fatalf("%s: ProcessFromFilter differs from the oracle (len %d vs %d)", where, len(got), len(want))
						}
						if c, w := rx.lane.ClippedSamples(0), ref.ADCClippedSamples(); c != w {
							t.Fatalf("%s: ProcessFromFilter clipped %d, oracle %d", where, c, w)
						}
						if r, w := rx.lane.lanes[0].agc.Resync, ref.agc.resync; r != w {
							t.Fatalf("%s: resync counter %d, oracle %d", where, r, w)
						}
						carried = carried || ref.agc.resync != 0
					}
					if !carried {
						t.Errorf("os=%d noise=%v order=%d bits=%d: AGC resync never carried across a packet", os, noise, order, bits)
					}
				}
			}
		}
	}
}

// TestAGCProcessMatchesOracle pins AGC.Process, a one-lane call of the lane
// loop on the AGC's own state, to the oracle's per-sample control law bit
// for bit, sample and gain, over consecutive frames with and without Reset
// between them (the resync counter carries across Reset) and across Freeze
// switched on and off mid-stream. The configurations cover the release and
// attack slew clamps, the unclamped regime and gains railed at either bound.
func TestAGCProcessMatchesOracle(t *testing.T) {
	cfgs := []AGCConfig{
		{TargetDBm: -10, MinGainDB: -40, MaxGainDB: 40, TimeConstantSamples: 96},
		{TargetDBm: -10, MinGainDB: -40, MaxGainDB: 40, TimeConstantSamples: 16, InitialGainDB: 30},
		{TargetDBm: 0, MinGainDB: -10, MaxGainDB: 10, TimeConstantSamples: 4},
		{TargetDBm: -10, MinGainDB: -40, MaxGainDB: 40, TimeConstantSamples: 32, InitialGainDB: 5, Freeze: true},
	}
	levels := []float64{-30, -60, -5, 25, -90, -28}
	for c, cfg := range cfgs {
		a, err := NewAGC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newOracleAGC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for f, dBm := range levels {
			switch f {
			case 2:
				a.Reset()
				ref.Reset()
			case 3:
				a.SetFreeze(!cfg.Freeze)
				ref.SetFreeze(!cfg.Freeze)
			case 4:
				a.SetFreeze(cfg.Freeze)
				ref.SetFreeze(cfg.Freeze)
			}
			x := noiseSignal(700+37*f, dBm, int64(10*c+f))
			got := a.Process(append([]complex128(nil), x...))
			want := ref.Process(append([]complex128(nil), x...))
			if !sameBits(got, want) {
				t.Fatalf("cfg %d frame %d (%g dBm): Process differs from the per-sample law", c, f, dBm)
			}
			//lint:ignore floateq bit-identity contract: the one-lane loop must land on the oracle's gain exactly
			if g, w := a.GainDB(), ref.GainDB(); g != w {
				t.Fatalf("cfg %d frame %d: gain %v dB, oracle %v dB", c, f, g, w)
			}
		}
	}
}

// GainDB returns the current loop gain.
func (a *AGC) GainDB() float64 { return a.st[0].GainDB }

// SetFreeze holds (true) or releases (false) the gain.
func (a *AGC) SetFreeze(f bool) { a.cfg.Freeze, a.law.Freeze = f, f }

// ClippedSamples returns how many samples clipped since the last Reset.
func (a *ADC) ClippedSamples() int { return a.clip }

// ProcessSample converts one sample.
func (a *ADC) ProcessSample(x complex128) complex128 {
	i, ci := a.quantize(real(x))
	q, cq := a.quantize(imag(x))
	if ci || cq {
		a.clip++
	}
	return complex(i, q)
}

// ClippedSamples reports lane id's ADC clipping events since its packet
// started.
func (b *BatchReceiver) ClippedSamples(id int) int { return b.lanes[id].clip }
