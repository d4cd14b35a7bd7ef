package rxdsp

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"wlansim/internal/channel"
	"wlansim/internal/dsp"
	"wlansim/internal/phy"
	"wlansim/internal/units"
)

// The receive Group replaced one Receive that ran its passes lane by lane
// and over the whole signal: the DC notch through dsp.IIR.Process, both CFO
// rotations through dsp.Oscillator.MixInto over everything after the
// detection point, and fine timing through two correlations per lag. That
// receive is kept here, verbatim apart from its error classes, as the
// oracle every lane of a group receive must match bit for bit.

// oracleReceive is the sequential receive of x from index from on r's
// scratch, with the per-lane DC notch and the full-length rotations.
func oracleReceive(r *Receiver, x []complex128, from int) (*PacketResult, error) {
	det := r.Detector
	if det == nil {
		det = NewDetector()
	}
	if from < 0 {
		from = 0
	}
	if from >= len(x) {
		return nil, fmt.Errorf("rxdsp: start index %d beyond signal", from)
	}
	buf := append([]complex128(nil), x[from:]...)
	notch, err := dsp.DesignDCBlock(dcNotchCutoff)
	if err != nil {
		return nil, err
	}
	notch.Process(buf)
	d, err := det.Detect(buf, 0)
	if err != nil {
		return nil, err
	}
	work := append([]complex128(nil), buf[d.StartIndex:]...)
	d.StartIndex += from
	dsp.NewOscillator(-d.CoarseCFO, 0).MixInto(work)
	t1, err := oracleFineTiming(work, phy.ShortPreambleLen+32-80, 160)
	if err != nil {
		return nil, err
	}
	fine, err := FineCFO(work, t1)
	if err != nil {
		return nil, err
	}
	dsp.NewOscillator(-fine, 0).MixInto(work)
	var ce chanEstimator
	var est ChannelEstimate
	if err := ce.estimateInto(&est, work, t1); err != nil {
		return nil, err
	}
	linkSNR, err := EstimationSNR(work, t1)
	if err != nil {
		return nil, err
	}
	sigStart := t1 + 128
	if sigStart+phy.SymbolLen > len(work) {
		return nil, fmt.Errorf("rxdsp: truncated before SIGNAL symbol")
	}
	mmseReg := 0.0
	if r.MMSE {
		mmseReg = units.DBToLinear(-linkSNR)
	}
	sigData := make([]complex128, phy.NumDataCarriers)
	sigCSI := make([]float64, phy.NumDataCarriers)
	sigSpec, err := phy.DemodulateSymbolInto(nil, work[sigStart:sigStart+phy.SymbolLen])
	if err != nil {
		return nil, err
	}
	var ds dataScratch
	if err := ds.eq.equalize(sigData, sigCSI, sigSpec, &est, 0, mmseReg); err != nil {
		return nil, err
	}
	dec := phy.NewPacketDecoder()
	sf, err := dec.DecodeSignal(sigData)
	if err != nil {
		return nil, fmt.Errorf("rxdsp: SIGNAL decode: %w", err)
	}
	nBits := phy.ServiceBits + sf.Length*8 + phy.TailBits
	nSym := (nBits + sf.Mode.NDBPS() - 1) / sf.Mode.NDBPS()
	dataStart := sigStart + phy.SymbolLen
	if dataStart+nSym*phy.SymbolLen > len(work) {
		return nil, fmt.Errorf("rxdsp: truncated DATA field (%d symbols announced)", nSym)
	}
	carriers, csis, err := ds.equalizeData(work, dataStart, nSym, &est, mmseReg, false)
	if err != nil {
		return nil, err
	}
	var csiArg [][]float64
	if !r.DisableCSI {
		csiArg = csis
	}
	var psdu []byte
	if r.HardDecisions {
		psdu, err = dec.DecodeDataCarriersHard(carriers, sf.Mode, sf.Length)
	} else {
		psdu, err = dec.DecodeDataCarriers(carriers, csiArg, sf.Mode, sf.Length)
	}
	if err != nil {
		return nil, err
	}
	return &PacketResult{
		PSDU:              psdu,
		Signal:            sf,
		Detection:         d,
		CFO:               d.CoarseCFO + fine,
		T1Index:           d.StartIndex + t1,
		EqualizedCarriers: carriers,
		LinkSNRdB:         linkSNR,
		EndIndex:          d.StartIndex + dataStart + nSym*phy.SymbolLen,
	}, nil
}

// oracleFineTiming is fine timing with both correlations of every lag.
func oracleFineTiming(x []complex128, searchFrom, searchLen int) (int, error) {
	ref := longTD
	end := min(searchFrom+searchLen+len(ref)+64, len(x))
	if end-searchFrom < len(ref)+64 {
		return 0, fmt.Errorf("rxdsp: fine timing window too small")
	}
	seg := x[searchFrom:end]
	best, bestMag := -1, 0.0
	for l := 0; l+len(ref)+64 <= len(seg); l++ {
		s1, s2 := corrPairRef(seg, ref, l)
		if m := cmplx.Abs(s1) + cmplx.Abs(s2); m > bestMag {
			best, bestMag = l, m
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("rxdsp: fine timing failed")
	}
	return searchFrom + best, nil
}

// groupTestLanes builds n lanes of mixed fates: clean and noisy frames of
// several rates with carrier offsets and DC, noise-only lanes (no sync), a
// frame cut inside its DATA field (truncated) and one cut in its preamble,
// with ragged lengths.
func groupTestLanes(tb testing.TB, rng *rand.Rand, n int) [][]complex128 {
	rates := []int{6, 12, 24, 36, 48, 54}
	xs := make([][]complex128, n)
	for k := range xs {
		frame := makeFrame(tb, rates[rng.Intn(len(rates))], 20+rng.Intn(120), rng.Int63())
		x := withPadding(frame, 200+rng.Intn(500), rng.Intn(300))
		cfo := (2*rng.Float64() - 1) * 2e-3
		dsp.NewOscillator(cfo, rng.Float64()).MixInto(x)
		dc := complex(rng.NormFloat64()*0.01, rng.NormFloat64()*0.01)
		for i := range x {
			x[i] += dc
		}
		switch rng.Intn(8) {
		case 0:
			x = make([]complex128, len(x)) // noise only
		case 1:
			x = x[:len(x)-len(frame.Samples)/3] // DATA cut short
		case 2:
			x = x[:len(x)-len(frame.Samples)+250] // cut inside the preamble
		}
		channel.AddNoiseSNR(x, 3+25*rng.Float64(), rng.Int63())
		xs[k] = x
	}
	return xs
}

// checkMatchesOracle asserts a lane's result and error equal the oracle's,
// every float bit for bit.
func checkMatchesOracle(t *testing.T, lane int, got *PacketResult, gerr error, want *PacketResult, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("lane %d: err %v, oracle err %v", lane, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("lane %d: err %q, oracle %q", lane, gerr, werr)
		}
		return
	}
	f := func(name string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("lane %d: %s %v != oracle %v", lane, name, a, b)
		}
	}
	f("CFO", got.CFO, want.CFO)
	f("LinkSNRdB", got.LinkSNRdB, want.LinkSNRdB)
	f("Metric", got.Detection.Metric, want.Detection.Metric)
	if got.Detection.StartIndex != want.Detection.StartIndex || got.T1Index != want.T1Index ||
		got.EndIndex != want.EndIndex || got.Signal != want.Signal || string(got.PSDU) != string(want.PSDU) {
		t.Fatalf("lane %d: indices, SIGNAL or PSDU differ from the oracle", lane)
	}
	if len(got.EqualizedCarriers) != len(want.EqualizedCarriers) {
		t.Fatalf("lane %d: %d symbols, oracle %d", lane, len(got.EqualizedCarriers), len(want.EqualizedCarriers))
	}
	for n, sym := range got.EqualizedCarriers {
		for i, c := range sym {
			f(fmt.Sprintf("symbol %d carrier %d re", n, i), real(c), real(want.EqualizedCarriers[n][i]))
			f(fmt.Sprintf("symbol %d carrier %d im", n, i), imag(c), imag(want.EqualizedCarriers[n][i]))
		}
	}
}

// TestGroupReceiveMatchesOracle runs groups of 1 to 8 mixed lanes through
// one Group (kept across calls, so its scratch is reused at every width)
// and every lane through the oracle: each lane's result and error must be
// the oracle's, and every failure must carry its class.
func TestGroupReceiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g := NewGroup()
	classes := map[error]int{}
	for trial := 0; trial < 40; trial++ {
		L := 1 + trial%8
		xs := groupTestLanes(t, rng, L)
		rxs := make([]*Receiver, L)
		for k := range rxs {
			rxs[k] = NewReceiver()
			rxs[k].MMSE = rng.Intn(3) == 0
			rxs[k].HardDecisions = rng.Intn(5) == 0
		}
		from := 0
		if trial%5 == 4 {
			from = rng.Intn(150)
		}
		pkts, errs := g.Receive(rxs, xs, from)
		for k := range xs {
			want, werr := oracleReceive(rxs[k], xs[k], from)
			checkMatchesOracle(t, k, pkts[k], errs[k], want, werr)
			if errs[k] != nil {
				class := errors.New("unclassed")
				for _, c := range []error{ErrNoSync, ErrSignal, ErrTruncated} {
					if errors.Is(errs[k], c) {
						class = c
					}
				}
				if class != ErrNoSync && class != ErrSignal && class != ErrTruncated {
					t.Fatalf("lane %d: error %v has no class", k, errs[k])
				}
				classes[class]++
			}
		}
	}
	if classes[ErrNoSync] == 0 || classes[ErrTruncated] == 0 {
		t.Fatalf("failure classes not all exercised: %v", classes)
	}
}

// TestReceiveMatchesOracle pins Receive, the one-lane call, to the oracle
// on the same mixed lanes, one receiver reused across packets.
func TestReceiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	r := NewReceiver()
	for k, x := range groupTestLanes(t, rng, 40) {
		got, gerr := r.Receive(x, 0)
		want, werr := oracleReceive(r, x, 0)
		checkMatchesOracle(t, k, got, gerr, want, werr)
	}
}

// TestRotationsMatchOscillator pins the group's rotation passes to
// dsp.Oscillator's MixInto: one to six lanes of ragged lengths, the coarse
// rotation alone and coarse then fine, each split at a random sample (a
// rotation split anywhere carries its state).
func TestRotationsMatchOscillator(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := NewGroup()
	for trial := 0; trial < 30; trial++ {
		L := 1 + rng.Intn(6)
		xs := make([][]complex128, L)
		want := make([][]complex128, L)
		cs, fs := make([]rotator, L), make([]rotator, L)
		cut := make([]int, L)
		for k := range xs {
			n := 1 + rng.Intn(3000)
			xs[k] = make([]complex128, n)
			for i := range xs[k] {
				xs[k][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			nu1, nu2 := (2*rng.Float64()-1)*0.05, (2*rng.Float64()-1)*0.05
			want[k] = dsp.NewOscillator(nu1, 0).MixInto(append([]complex128(nil), xs[k]...))
			cs[k], fs[k] = newRotator(nu1), newRotator(nu2)
			if trial%2 == 0 {
				dsp.NewOscillator(nu2, 0).MixInto(want[k])
			}
			cut[k] = rng.Intn(n + 1)
		}
		for _, part := range [2]bool{false, true} {
			g.jobs = g.jobs[:0]
			for k := range xs {
				x := xs[k][:cut[k]]
				if part {
					x = xs[k][cut[k]:]
				}
				j := rotJob{x: x, a: &cs[k]}
				if trial%2 == 0 {
					j.b = &fs[k]
				}
				g.jobs = append(g.jobs, j)
			}
			g.runJobs(trial%2 == 0)
		}
		for k := range xs {
			cplxBitsEqual(t, fmt.Sprintf("trial %d lane %d", trial, k), xs[k], want[k])
		}
	}
}

// oscRef is dsp.Oscillator's recurrence on a state and step of one's
// choosing: the reference for states that drift off the unit circle.
type oscRef struct{ step, state complex128 }

func (o *oscRef) next() complex128 {
	v := o.state
	o.state *= o.step
	re, im := real(o.state), imag(o.state)
	if s := re*re + im*im; s < 0.9999985 || s > 1.0000015 {
		if m := cmplx.Abs(o.state); m < 0.999999 || m > 1.000001 {
			o.state /= complex(m, 0)
		}
	}
	return v
}

// TestRotationsRenormalizeAsOscillator drives rotations whose steps are off
// the unit circle by up to 1e-5, so states cross the screening band and
// are renormalized many times, against the oscillator's recurrence.
func TestRotationsRenormalizeAsOscillator(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := NewGroup()
	for trial := 0; trial < 10; trial++ {
		L := 1 + rng.Intn(5)
		g.jobs = g.jobs[:0]
		xs := make([][]complex128, L)
		want := make([][]complex128, L)
		cs, fs := make([]rotator, L), make([]rotator, L)
		for k := range xs {
			n := 1 + rng.Intn(4000)
			xs[k] = make([]complex128, n)
			want[k] = make([]complex128, n)
			for _, r := range []*rotator{&cs[k], &fs[k]} {
				*r = newRotator((2*rng.Float64() - 1) * 0.05)
				r.step *= complex(1+(2*rng.Float64()-1)*1e-5, 0)
			}
			c, f := oscRef(cs[k]), oscRef(fs[k])
			for i := range xs[k] {
				xs[k][i] = complex(rng.NormFloat64(), rng.NormFloat64())
				want[k][i] = xs[k][i] * c.next() * f.next()
			}
			g.jobs = append(g.jobs, rotJob{x: xs[k], a: &cs[k], b: &fs[k]})
		}
		g.runJobs(true)
		for k := range xs {
			cplxBitsEqual(t, fmt.Sprintf("trial %d lane %d", trial, k), xs[k], want[k])
		}
	}
}

func cplxBitsEqual(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	for i := range got {
		if !bitsEq(got[i], want[i]) {
			t.Fatalf("%s sample %d: %v != oscillator %v", name, i, got[i], want[i])
		}
	}
}
