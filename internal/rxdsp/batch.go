package rxdsp

import "wlansim/internal/phy"

// DecodeDeferredBatch completes the DATA-field decode of deferred Receive
// results (Receiver.DeferDataDecode) in lock-step: the packets' soft streams
// run through one batched Viterbi pass, the hot half of the bit-level chain.
// Each lane's PSDU and error are bit-identical to what its non-deferred
// Receive would have produced — the pre- and post-Viterbi halves run per
// lane on the lane's own decoder scratch, and the batched Viterbi is pinned
// lane≡sequential by its differential tests.
//
// rxs[l] must be the receiver whose Receive produced pkts[l]. Lanes whose
// entry is nil or already decoded (non-nil PSDU, e.g. hard decisions) are
// skipped. Deferred lanes are grouped by their decoded SIGNAL shape — at low
// SNR, lanes can announce divergent rates or lengths — with the leading
// group decoded as one batch and any stragglers decoded sequentially. A
// lone deferred lane decodes sequentially too.
//
// The returned slice holds, per lane, the error the sequential Receive would
// have returned (nil on success); a failed lane's packet is lost exactly as
// in sequential operation.
func DecodeDeferredBatch(rxs []*Receiver, pkts []*PacketResult) []error {
	errs := make([]error, len(pkts))
	idx := make([]int, 0, len(pkts))
	for l, pkt := range pkts {
		if pkt == nil || pkt.PSDU != nil || rxs[l] == nil || rxs[l].dec == nil {
			continue
		}
		idx = append(idx, l)
	}
	switch len(idx) {
	case 0:
		return errs
	case 1:
		// A lone lane decodes faster through the scalar call than as a
		// lock-step pass of one.
		errs[idx[0]] = rxs[idx[0]].decodeDeferred(pkts[idx[0]])
		return errs
	}
	lead := pkts[idx[0]]
	mode, psduLen, nSym := lead.Signal.Mode, lead.Signal.Length, len(lead.EqualizedCarriers)
	ds := make([]*phy.PacketDecoder, 0, len(idx))
	carrs := make([][][]complex128, 0, len(idx))
	csis := make([][][]float64, 0, len(idx))
	lanes := make([]int, 0, len(idx))
	for _, l := range idx {
		pkt := pkts[l]
		if pkt.Signal.Mode == mode && pkt.Signal.Length == psduLen && len(pkt.EqualizedCarriers) == nSym {
			ds = append(ds, rxs[l].dec)
			carrs = append(carrs, pkt.EqualizedCarriers)
			csis = append(csis, pkt.CSI)
			lanes = append(lanes, l)
			continue
		}
		// Straggler with a divergent SIGNAL decode.
		errs[l] = rxs[l].decodeDeferred(pkt)
	}
	psdus, derrs := phy.DecodeDataCarriersBatch(ds, carrs, csis, mode, psduLen)
	for k, l := range lanes {
		if derrs[k] != nil {
			errs[l] = derrs[k]
			continue
		}
		pkts[l].PSDU = psdus[k]
	}
	return errs
}

// decodeDeferred completes one deferred packet on its own with exactly the
// call its non-deferred Receive would have made.
func (r *Receiver) decodeDeferred(pkt *PacketResult) error {
	psdu, err := r.dec.DecodeDataCarriers(pkt.EqualizedCarriers, pkt.CSI, pkt.Signal.Mode, pkt.Signal.Length)
	if err != nil {
		return err
	}
	pkt.PSDU = psdu
	return nil
}
