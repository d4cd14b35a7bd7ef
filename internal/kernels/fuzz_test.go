package kernels

import (
	"encoding/binary"
	"math"
	"testing"
)

// Fuzz differential targets for the kernels with the widest input
// domains: the fuzzer owns the raw float64 bit patterns, so it explores
// NaN payloads, infinities, denormals and huge magnitudes that the seeded
// Gaussian tests only sample. Both targets assert the unrolled kernel is
// bit-identical to its retained reference (modulo NaN payload bits, which
// IEEE-754 leaves unspecified — see bitsEqual). Seed corpora are checked
// in under testdata/fuzz/<FuzzName>/; scripts/check.sh runs each target
// for a short fixed duration on top of the seed-corpus replay that plain
// `go test` already performs.

// fuzzFloats reinterprets the fuzz payload as little-endian float64 words,
// capped at max values to bound per-input work.
func fuzzFloats(data []byte, max int) []float64 {
	n := len(data) / 8
	if n > max {
		n = max
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}

// FuzzACSRun drives the dispatching ACS runner and the frozen per-step
// reference over the same fuzzer-chosen soft-metric stream from the
// decoder's standard 0/-Inf bank. Any non-finite metric must flip ACSRun
// onto the reference path for the rest of the run, so decisions and final
// metrics stay bit-identical even mid-stream of adversarial values.
func FuzzACSRun(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1.5, -0.5, 0.25, 2.0))
	f.Add(seed(math.Inf(1), 1, -1, math.NaN(), 3, -3))
	f.Add(seed(0, 0, math.SmallestNonzeroFloat64, -1e308))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := fuzzFloats(data, 2*96)
		steps := len(vals) / 2
		if steps == 0 {
			return
		}
		soft := vals[:2*steps]

		var m0, s0, m1, s1 [64]float64
		acsInitBank(&m0)
		acsInitBank(&m1)
		got := make([]uint64, steps)
		want := make([]uint64, steps)
		gm := ACSRun(got, soft, &m0, &s0)
		wm := acsRunRef(want, soft, &m1, &s1)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("decision word %d: %#x != ref %#x", i, got[i], want[i])
			}
		}
		bitsEqual(t, "metric", gm[:], wm[:])
	})
}

// FuzzACSBatch splits the fuzzer payload across a fuzzer-chosen batch width
// and asserts the lock-step batched trellis is bit-identical, lane for lane,
// to independent sequential ACSRun calls — decisions and final metric banks
// both, including lanes that trip the non-finite reference fallback while
// their batch-mates stay on the fast path.
func FuzzACSBatch(f *testing.F) {
	seed := func(width byte, vals ...float64) []byte {
		b := make([]byte, 1+8*len(vals))
		b[0] = width
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[1+8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(2, 1.5, -0.5, 0.25, 2.0, -1, 1, 0.5, -2))
	f.Add(seed(4, math.Inf(1), 1, -1, math.NaN(), 3, -3, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(seed(1, 0, 0, math.SmallestNonzeroFloat64, -1e308))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		B := int(data[0])%16 + 1
		vals := fuzzFloats(data[1:], B*2*64)
		steps := len(vals) / (2 * B)
		if steps == 0 {
			return
		}

		soft := make([][]float64, B)
		decSeq := make([][]uint64, B)
		finalSeq := make([][64]float64, B)
		for b := 0; b < B; b++ {
			soft[b] = vals[b*2*steps : (b+1)*2*steps]
			decSeq[b] = make([]uint64, steps)

			var m, s [64]float64
			acsInitBank(&m)
			finalSeq[b] = *ACSRun(decSeq[b], soft[b], &m, &s)
		}

		// Run the batched trellis under both kernel tiers: decisions and
		// final banks must be bit-identical to sequential either way.
		prev := DispatchName() != "purego"
		defer SetDispatch(prev)
		for _, simd := range []bool{true, false} {
			SetDispatch(simd)
			decBatch := make([][]uint64, B)
			metric := make([]*[64]float64, B)
			scratch := make([]*[64]float64, B)
			clean := make([]bool, B)
			for b := 0; b < B; b++ {
				decBatch[b] = make([]uint64, steps)
				metric[b] = new([64]float64)
				scratch[b] = new([64]float64)
				acsInitBank(metric[b])
			}

			ACSRunBatch(decBatch, soft, metric, scratch, clean)

			for b := 0; b < B; b++ {
				for i := range decBatch[b] {
					if decBatch[b][i] != decSeq[b][i] {
						t.Fatalf("tier %s lane %d decision word %d: %#x != sequential %#x",
							DispatchName(), b, i, decBatch[b][i], decSeq[b][i])
					}
				}
				final := metric[b]
				if steps%2 == 1 {
					final = scratch[b]
				}
				bitsEqual(t, "metric", final[:], finalSeq[b][:])
			}
		}
	})
}

// FuzzFIRReal splits the payload into a shared real tap set and a
// fuzzer-chosen number of lanes, asserting FIRReal on each lane is
// bit-identical under both dispatch tiers across tap counts, lane counts
// and raw float64 bit patterns.
func FuzzFIRReal(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(append([]byte{1, 1}, make([]byte, 8*8)...))
	f.Add(append([]byte{24, 3}, make([]byte, 8*200)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		tapN := int(data[0])%24 + 1
		B := int(data[1])%16 + 1
		vals := fuzzFloats(data[2:], tapN+B*(tapN-1+48))
		if len(vals) < tapN+B*tapN {
			return // need taps plus one output sample per lane
		}
		taps := vals[:tapN]
		rest := vals[tapN:]
		extN := len(rest) / B
		n := extN - (tapN - 1)
		if n < 1 {
			return
		}

		xr := make([][]float64, B)
		xi := make([][]float64, B)
		gr := make([][]float64, B)
		gi := make([][]float64, B)
		for b := 0; b < B; b++ {
			lane := rest[b*extN : (b+1)*extN]
			xr[b] = lane
			// Reuse the same plane reversed for the imaginary part so the
			// payload budget is spent on distinct real planes across lanes.
			rev := make([]float64, extN)
			for i := range rev {
				rev[i] = lane[extN-1-i]
			}
			xi[b] = rev
			gr[b] = make([]float64, n)
			gi[b] = make([]float64, n)
		}

		// The oracle once under the current tier, then every lane under both
		// tiers: per-lane outputs must match bit for bit on each.
		wr := make([][]float64, B)
		wi := make([][]float64, B)
		for b := 0; b < B; b++ {
			wr[b] = make([]float64, n)
			wi[b] = make([]float64, n)
			FIRReal(wr[b], wi[b], xr[b], xi[b], taps)
		}
		prev := DispatchName() != "purego"
		defer SetDispatch(prev)
		for _, simd := range []bool{true, false} {
			SetDispatch(simd)
			for b := 0; b < B; b++ {
				FIRReal(gr[b], gi[b], xr[b], xi[b], taps)
				bitsEqual(t, "re", gr[b], wr[b])
				bitsEqual(t, "im", gi[b], wi[b])
			}
		}
	})
}

// FuzzFFTStage drives the planar FFT butterfly stage — single-transform and
// lane-interleaved X4 — against the frozen references under both dispatch
// tiers. The fuzzer owns the stage geometry (half and block count, so the
// quad body, the half 1 and 2 shuffled bodies, their Go fallback on frames
// that are not a multiple of 8 elements, and ragged shapes all get hit) and
// the raw float64 bit patterns of both the twiddle planes and the data
// planes, so the no-FMA / ordered-rounding contract is checked on NaN
// payloads, infinities and denormals the seeded tests only sample.
func FuzzFFTStage(f *testing.F) {
	seed := func(halfExp, blocks byte, vals ...float64) []byte {
		b := make([]byte, 2+8*len(vals))
		b[0], b[1] = halfExp, blocks
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[2+8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(2, 0, 1, 0, 0, -1, 0.5, -0.5, 0.25, 1.5, 2, -2, 3, -3, 4, -4, 5, -5))
	f.Add(seed(0, 1, math.Inf(1), math.NaN(), 1, -1, math.SmallestNonzeroFloat64, -1e308))
	f.Add(seed(5, 2, 0.7071067811865476, -0.7071067811865476, 1, 1))
	// Eight-element frames: the half 1 and 2 vector bodies.
	ramp := make([]float64, 20)
	for i := range ramp {
		ramp[i] = float64(i) - 6.5
	}
	ramp[9], ramp[12] = math.NaN(), math.Inf(-1)
	f.Add(seed(0, 3, ramp...))
	f.Add(seed(1, 1, append([]float64{0.7071067811865476, -0.7071067811865476}, ramp...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		half := 1 << (int(data[0]) % 6)
		blocks := int(data[1])%8 + 1
		n := 2 * half * blocks
		vals := fuzzFloats(data[2:], 2*half+2*n)
		if len(vals) < 2*half+2*n {
			return
		}
		wr, wi := vals[:half], vals[half:2*half]
		re0, im0 := vals[2*half:2*half+n], vals[2*half+n:2*half+2*n]

		// Lane-interleaved planes: four rotations of the payload frame so the
		// X4 lanes carry distinct chains.
		qre0 := make([]float64, 4*n)
		qim0 := make([]float64, 4*n)
		for i := 0; i < n; i++ {
			for l := 0; l < 4; l++ {
				qre0[4*i+l] = re0[(i+l)%n]
				qim0[4*i+l] = im0[(i+l)%n]
			}
		}

		prev := DispatchName() != "purego"
		defer SetDispatch(prev)
		for _, simd := range []bool{true, false} {
			SetDispatch(simd)

			gre := append([]float64(nil), re0...)
			gim := append([]float64(nil), im0...)
			wre := append([]float64(nil), re0...)
			wim := append([]float64(nil), im0...)
			FFTStage(gre, gim, wr, wi, half)
			FFTStageRef(wre, wim, wr, wi, half)
			bitsEqual(t, "stage re", gre, wre)
			bitsEqual(t, "stage im", gim, wim)

			qre := append([]float64(nil), qre0...)
			qim := append([]float64(nil), qim0...)
			qre2 := append([]float64(nil), qre0...)
			qim2 := append([]float64(nil), qim0...)
			FFTStageX4(qre, qim, wr, wi, half)
			FFTStageX4Ref(qre2, qim2, wr, wi, half)
			bitsEqual(t, "x4 re", qre, qre2)
			bitsEqual(t, "x4 im", qim, qim2)
		}
	})
}

// FuzzFIRCplx runs the 4-way-unrolled planar complex FIR and its reference
// over the same fuzzer-chosen taps and extended input. The fuzzer controls
// the tap count (first byte), so the unroll main body, the scalar tail and
// single-tap degenerate shapes all get exercised.
func FuzzFIRCplx(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(append([]byte{1}, make([]byte, 8*8)...))
	f.Add(append([]byte{24}, make([]byte, 8*120)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		tapN := int(data[0])%24 + 1
		vals := fuzzFloats(data[1:], 2*tapN+2*(tapN-1+64))
		if len(vals) < 2*tapN+2*tapN {
			return // need taps plus at least one output sample of history+frame
		}
		tr, ti := vals[:tapN], vals[tapN:2*tapN]
		rest := vals[2*tapN:]
		extN := len(rest) / 2
		n := extN - (tapN - 1)
		if n < 1 {
			return
		}
		xr, xi := rest[:extN], rest[extN:2*extN]

		gr := make([]float64, n)
		gi := make([]float64, n)
		wr := make([]float64, n)
		wi := make([]float64, n)
		FIRCplx(gr, gi, xr, xi, tr, ti)
		FIRCplxRef(wr, wi, xr, xi, tr, ti)
		bitsEqual(t, "re", gr, wr)
		bitsEqual(t, "im", gi, wi)
	})
}

// sincosFuzzSeed packs float64 values as the little-endian payload
// FuzzSincos reads.
func sincosFuzzSeed(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// FuzzSincos runs the phase-plane Sincos kernel under both dispatch tiers
// on fuzzer-chosen raw float64 bit patterns and asserts strict bit
// equality, NaN payloads included: every sine and cosine must equal
// math.Sincos, and every cosine math.Cos. The payload length varies the
// quad count and the ragged tail, and any quad holding a NaN, an infinity
// or a magnitude from 2^29 on exercises the scalar fallback between
// vector quads.
func FuzzSincos(f *testing.F) {
	limit := float64(sincosLimit)
	f.Add(sincosFuzzSeed(0, math.Copysign(0, -1), 1, -1))
	f.Add(sincosFuzzSeed(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1p-1030, 1e-300, -1e-200, 0x1p-27, -0x1p-28))
	f.Add(sincosFuzzSeed(math.Pi/4, math.Pi/2, 3*math.Pi/4, math.Pi,
		5*math.Pi/4, 3*math.Pi/2, 7*math.Pi/4, 2*math.Pi, -math.Pi/4, -3*math.Pi/4, 1e4*math.Pi/4))
	f.Add(sincosFuzzSeed(math.Nextafter(limit, 0), limit, math.Nextafter(limit, math.Inf(1)),
		-math.Nextafter(limit, 0), 1, 2, 3, 4, -limit))
	f.Add(sincosFuzzSeed(math.NaN(), 1, 2, 3, math.Inf(1), math.Inf(-1), 5, 6, 7))
	f.Add(sincosFuzzSeed(1e300, -1e300, math.MaxFloat64, 1e22, 0x1p60, 12345.678, -0.5, 1.5))
	f.Fuzz(func(t *testing.T, data []byte) {
		x := fuzzFloats(data, 256)
		s := make([]float64, len(x))
		c := make([]float64, len(x))
		prev := DispatchName() != "purego"
		defer SetDispatch(prev)
		for _, simd := range []bool{true, false} {
			SetDispatch(simd)
			Sincos(s, c, x)
			for i, v := range x {
				ws, wc := math.Sincos(v)
				if math.Float64bits(s[i]) != math.Float64bits(ws) ||
					math.Float64bits(c[i]) != math.Float64bits(wc) {
					t.Fatalf("tier %s: Sincos(%x) = (%x, %x), math.Sincos (%x, %x)", DispatchName(),
						math.Float64bits(v), math.Float64bits(s[i]), math.Float64bits(c[i]),
						math.Float64bits(ws), math.Float64bits(wc))
				}
				if math.Float64bits(c[i]) != math.Float64bits(math.Cos(v)) {
					t.Fatalf("tier %s: cos plane at %x = %x, math.Cos %x", DispatchName(),
						math.Float64bits(v), math.Float64bits(c[i]), math.Float64bits(math.Cos(v)))
				}
			}
		}
	})
}

// FuzzBiquadBatch decodes 1-9 lanes with a section of their own each (five
// coefficients and four delay states per lane, raw float64 bit patterns)
// and planar samples from the payload, and asserts BiquadBatch on both
// tiers is bit-identical to the lane-major reference, outputs and states.
func FuzzBiquadBatch(f *testing.F) {
	seed := func(lanes byte, vals ...float64) []byte {
		b := []byte{lanes - 1}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 0.07, 0.13, 0.07, -1.14, 0.41, 0, 0, 0, 0, 1, -1, 0.5, 0.25))
	f.Add(seed(3, 0.07, 0.2, 1, 0.13, 0.1, 2, 0.07, 0.05, 1, -1.14, -1.5, 0, 0.41, 0.6, 0,
		0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0,
		math.NaN(), 1, math.Inf(1), 2, -1, 3, 4, 5, math.Inf(-1), 6, 7, 8))
	f.Add(seed(9, make([]float64, 9*9+9*2*5)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		B := int(data[0])%9 + 1
		vals := fuzzFloats(data[1:], 9*B+2*B*64)
		if len(vals) < 9*B {
			return
		}
		c := make([][]float64, 9)
		for k := range c {
			c[k] = vals[k*B : (k+1)*B]
		}
		n := (len(vals) - 9*B) / (2 * B)
		re, im := makePlanes(B, n), makePlanes(B, n)
		for l := 0; l < B; l++ {
			copy(re[l], vals[9*B+2*l*n:])
			copy(im[l], vals[9*B+(2*l+1)*n:])
		}
		wre, wim := clonePlanes(re), clonePlanes(im)
		wst := clonePlanes(c[5:])
		BiquadBatchRef(wre, wim, c[0], c[1], c[2], c[3], c[4], wst[0], wst[1], wst[2], wst[3])

		prev := DispatchName() != "purego"
		defer SetDispatch(prev)
		for _, simd := range []bool{true, false} {
			SetDispatch(simd)
			gre, gim := clonePlanes(re), clonePlanes(im)
			gst := clonePlanes(c[5:])
			BiquadBatch(gre, gim, c[0], c[1], c[2], c[3], c[4], gst[0], gst[1], gst[2], gst[3])
			for l := 0; l < B; l++ {
				bitsEqualLane(t, "re", l, gre[l], wre[l])
				bitsEqualLane(t, "im", l, gim[l], wim[l])
			}
			for k := range gst {
				bitsEqualLane(t, "state", k, gst[k], wst[k])
			}
		}
	})
}

// FuzzCorrLags drives CorrLags on both tiers against CorrLagsRef over a
// fuzzer-chosen signal and reference: the lag count is fuzzed across the
// eight-lag vector passes and the scalar tail.
func FuzzCorrLags(f *testing.F) {
	f.Add([]byte{9, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(append([]byte{17, 5}, make([]byte, 8*60)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		lags := int(data[0])%40 + 1
		tapN := int(data[1]) % 24
		vals := fuzzFloats(data[2:], 2*(lags+tapN-1)+2*tapN)
		if len(vals) < 2*(lags+tapN-1)+2*tapN || lags+tapN-1 < 1 {
			return
		}
		m := lags + tapN - 1
		seg := make([]complex128, m)
		re, im := vals[:m], vals[m:2*m]
		for i := range seg {
			seg[i] = complex(re[i], im[i])
		}
		rr, ri := vals[2*m:2*m+tapN], vals[2*m+tapN:2*m+2*tapN]
		ref := make([]complex128, tapN)
		for k := range ref {
			ref[k] = complex(rr[k], ri[k])
		}
		wr, wi := CorrLagsRef(seg, ref, lags)
		defer SetDispatch(DispatchName() != "purego")
		for _, simd := range []bool{true, false} {
			SetDispatch(simd)
			cr, ci := make([]float64, lags), make([]float64, lags)
			CorrLags(cr, ci, re, im, rr, ri)
			bitsEqual(t, "corr re", cr, wr)
			bitsEqual(t, "corr im", ci, wi)
		}
	})
}
