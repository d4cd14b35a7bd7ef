package rxdsp

import (
	"fmt"

	"wlansim/internal/phy"
	"wlansim/internal/units"
)

// ReceiveAll decodes every packet found in the baseband stream x, resuming
// the search after each decoded frame. Sync or decode failures of individual
// packets are skipped by advancing past the failed detection point, so one
// corrupted burst does not hide later traffic. It returns the successfully
// decoded packets in stream order.
func (r *Receiver) ReceiveAll(x []complex128) []*PacketResult {
	var out []*PacketResult
	from := 0
	for from < len(x)-phy.PreambleLen {
		res, err := r.Receive(x, from)
		if err == nil {
			out = append(out, res)
			from = res.EndIndex
			continue
		}
		// Find where detection last triggered (if at all) so we can skip
		// past a packet that detected but failed to decode; otherwise
		// nothing further is detectable.
		det := r.Detector
		if det == nil {
			det = NewDetector()
		}
		d, derr := det.Detect(x, from)
		if derr != nil {
			break
		}
		from = d.StartIndex + phy.PreambleLen
	}
	return out
}

// EstimationSNR estimates the channel-estimate quality by comparing the two
// individual long-training-symbol estimates: their difference is twice the
// per-symbol noise. It returns the estimated SNR in dB of the averaged
// estimate (useful as a link-quality indicator).
func EstimationSNR(x []complex128, t1 int) (float64, error) {
	if t1 < 0 || t1+128 > len(x) {
		return 0, fmt.Errorf("rxdsp: long training symbols out of range")
	}
	var sig, noise float64
	for k := 0; k < 64; k++ {
		a := x[t1+k]
		b := x[t1+64+k]
		s := (a + b) / 2
		d := (a - b) / 2
		sig += real(s)*real(s) + imag(s)*imag(s)
		noise += real(d)*real(d) + imag(d)*imag(d)
	}
	if noise <= 0 {
		return 300, nil // numerically noiseless
	}
	// sig estimates S + N/2 and noise estimates N/2, so the unbiased SNR is
	// (sig/noise - 1) / 2.
	snr := (sig/noise - 1) / 2
	if snr <= 0 {
		return -300, nil
	}
	return units.LinearToDB(snr), nil
}
