package phy

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/phy/viterbi"
)

// oracleDecodeData is the per-packet DATA-field decode the lanes of
// DecodeDataCarriersBatch replaced, kept as their oracle: per symbol the
// scalar soft demapper (or the hard slicer's ±1 metrics) and the
// deinterleaver, then the depuncturer, a fresh decoder's Viterbi pass and
// the descrambling tail, each on buffers of its own.
func oracleDecodeData(carriers [][]complex128, csi [][]float64, hard bool, mode Mode, psduLen int) ([]byte, error) {
	if psduLen < 1 {
		return nil, fmt.Errorf("phy: psduLen %d invalid", psduLen)
	}
	var soft []float64
	for n, c := range carriers {
		var m []float64
		if hard {
			h, err := DemapHardAppend(nil, c, mode.Modulation)
			if err != nil {
				return nil, err
			}
			for _, b := range h {
				m = append(m, float64(1-2*int(b)))
			}
		} else {
			var w []float64
			if csi != nil {
				w = csi[n]
			}
			var err error
			if m, err = DemapSoftAppend(nil, c, mode.Modulation, w); err != nil {
				return nil, err
			}
		}
		chunk, err := DeinterleaveSoftInto(nil, m, mode)
		if err != nil {
			return nil, err
		}
		soft = append(soft, chunk...)
	}
	dep, err := DepunctureAppend(nil, soft, mode.CodeRate)
	if err != nil {
		return nil, err
	}
	decoded, err := viterbi.New().DecodeSoftInto(nil, dep)
	if err != nil {
		return nil, err
	}
	return NewPacketDecoder().finishDecoded(decoded, psduLen)
}

// noisyDataCarriers transmits a random PSDU at mode and returns its DATA
// symbols' data carriers with complex Gaussian noise of deviation sigma per
// axis, and random channel-state weights.
func noisyDataCarriers(t *testing.T, rng *rand.Rand, mode Mode, psduLen int, sigma float64) ([][]complex128, [][]float64) {
	t.Helper()
	psdu := make([]byte, psduLen)
	rng.Read(psdu)
	frame, err := (&Transmitter{Mode: mode}).Transmit(psdu)
	if err != nil {
		t.Fatal(err)
	}
	start := PreambleLen + SymbolLen
	carriers := make([][]complex128, frame.NumDataSymbols)
	csi := make([][]float64, frame.NumDataSymbols)
	for n := range carriers {
		spec, err := DemodulateSymbolInto(nil, frame.Samples[start+n*SymbolLen:start+(n+1)*SymbolLen])
		if err != nil {
			t.Fatal(err)
		}
		if carriers[n], err = ExtractDataInto(nil, spec); err != nil {
			t.Fatal(err)
		}
		csi[n] = make([]float64, len(carriers[n]))
		for k := range carriers[n] {
			carriers[n][k] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
			csi[n][k] = 0.25 + rng.Float64()
		}
	}
	return carriers, csi
}

// TestDecodeBatchMatchesScalarOracle pins every lane of
// DecodeDataCarriersBatch, in groups mixing weighted, unweighted and hard
// lanes with a lane whose terminated trellis is unreachable (NaN carriers)
// and one whose prepare step fails (a short symbol), to the scalar oracle:
// the PSDU, or the error and its text. DecodeDataCarriers, the one-lane
// call, is pinned on every soft lane; a second pass on the same decoders
// must reproduce the first.
func TestDecodeBatchMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, mode := range Modes {
		for _, B := range []int{1, 2, 5, 8} {
			psduLen := 20 + rng.Intn(60)
			lanes := make([]DataLane, B)
			for k := range lanes {
				carriers, csi := noisyDataCarriers(t, rng, mode, psduLen, 0.05+0.25*rng.Float64())
				l := DataLane{Dec: NewPacketDecoder(), Carriers: carriers}
				switch k % 4 {
				case 1:
					l.CSI = csi
				case 2:
					l.Hard = true
				}
				lanes[k] = l
			}
			if B >= 5 {
				// Lane 3 cannot reach the zero state; lane 4 has a short
				// symbol.
				for _, sym := range lanes[3].Carriers {
					for i := range sym {
						sym[i] = complex(math.NaN(), 0)
					}
				}
				lanes[4].Carriers[len(lanes[4].Carriers)/2] = lanes[4].Carriers[0][:NumDataCarriers-1]
			}
			for pass := 0; pass < 2; pass++ {
				DecodeDataCarriersBatch(lanes, mode, psduLen)
				for k, l := range lanes {
					name := fmt.Sprintf("%d Mbit/s B=%d pass %d lane %d", mode.RateMbps, B, pass, k)
					want, werr := oracleDecodeData(l.Carriers, l.CSI, l.Hard, mode, psduLen)
					checkDecodeMatches(t, name, l.PSDU, l.Err, want, werr)
					if !l.Hard {
						one, oerr := NewPacketDecoder().DecodeDataCarriers(l.Carriers, l.CSI, mode, psduLen)
						checkDecodeMatches(t, name+" one-lane", one, oerr, want, werr)
					}
				}
				if B >= 5 && (lanes[3].Err == nil || lanes[4].Err == nil) {
					t.Fatalf("%d Mbit/s B=%d: the failing lanes decoded", mode.RateMbps, B)
				}
			}
		}
	}
}

// checkDecodeMatches asserts a decode's PSDU and error equal the oracle's.
func checkDecodeMatches(t *testing.T, name string, got []byte, gerr error, want []byte, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: err %v, oracle err %v", name, gerr, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: PSDU differs from the oracle", name)
	}
}
