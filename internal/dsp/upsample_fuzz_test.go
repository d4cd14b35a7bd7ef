package dsp

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzUpsamplerStream pins the streaming upsampler to upsampleRef (zero
// stuffing plus FIR.Process on a twin filter) with strict Float64bits on
// fuzzer-chosen samples — ±0, NaN and ±Inf among them — for factors 2-64,
// powers of two (the overlap-save blocks take only the stuffing grid) and
// others (the whole segment), three filter lengths (one with a history
// that is not a whole number of factor periods), and up to three frames
// in a row, so the history of one frame feeds the next. Frame lengths of
// 0-255 samples land on both sides of the overlap-save threshold.
//
// Payload: factor byte, filter/frame-count byte, one length byte per
// frame, then float64 words cycled through the frames' samples.
func FuzzUpsamplerStream(f *testing.F) {
	seed := func(factor, mode byte, lens []byte, vals ...float64) []byte {
		b := append([]byte{factor, mode}, lens...)
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(30, 9, []byte{200, 40, 130}, 1, -0.5, 0.25, math.Copysign(0, -1), 0, 3))
	f.Add(seed(6, 6, []byte{250, 3, 180}, 0.5, math.NaN(), -1, math.Copysign(0, -1), 2, math.Inf(1), 0.75))
	f.Add(seed(0, 1, []byte{255}, math.NaN(), 1, math.Inf(1), -2, math.Inf(-1), 0.5))
	f.Add(seed(1, 2, []byte{120, 7}, 0.1, -0.3, 1e300, -1e-310))
	f.Add(seed(14, 0, []byte{90}, 1, 2, 3, 4, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		factor := 2 + int(data[0])%63
		var taps int
		switch data[1] & 3 {
		case 0, 3:
			taps = 0 // the default interpolator, 48*factor+1 taps
		case 1:
			taps = 16*factor + 1 // the co-sim front end's
		case 2:
			// A history of 5*factor+50 samples, so the stuffing grid's
			// phase in a segment is neither 0 nor factor/2 (for factor 8
			// and up).
			taps = 5*factor + 51
		}
		frames := 1 + int(data[1]>>2)%3
		if len(data) < 2+frames {
			return
		}
		lens := data[2 : 2+frames]
		vals := fuzzWords(data[2+frames:])
		if len(vals) == 0 {
			return
		}
		u, err := NewUpsampler(factor, taps)
		if err != nil {
			t.Fatal(err)
		}
		ref := NewFIR(u.filter.taps)
		k := 0
		for fr, n := range lens {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(vals[k%len(vals)], vals[(k+1)%len(vals)])
				k += 2
			}
			want := upsampleRef(ref, factor, x)
			var got []complex128
			if fr%2 == 0 {
				got = u.Process(x)
			} else {
				u.Begin(x)
				for blk := u.Next(); blk != nil; blk = u.Next() {
					got = append(got, blk...)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("factor %d frame %d: %d samples, want %d", factor, fr, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("factor %d taps %d frame %d (%d samples): sample %d = %v, want %v",
						factor, len(u.filter.taps), fr, n, i, got[i], want[i])
				}
			}
		}
	})
}

// fuzzWords reinterprets the payload as little-endian float64 words.
func fuzzWords(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}
