package rxdsp

import "wlansim/internal/phy"

// dataDecode is a lane group's DATA-field decode: the lanes of one SIGNAL
// shape as one phy.DecodeDataCarriersBatch.
type dataDecode struct {
	lanes []phy.DataLane
	ids   []int  // the group lane of each decode lane
	done  []bool // per group lane: decoded, or nothing to decode
}

// run decodes the DATA field of every lane k with a packet pkts[k] (nil:
// skipped) on rxs[k]'s decoder — soft metrics weighted by pkts[k].CSI, or
// hard decisions with rxs[k].HardDecisions — and sets pkts[k].PSDU, or
// errs[k] to the decode's error. The lanes are grouped by SIGNAL shape
// (mode, length and symbol count), and each shape is one lock-step pass, a
// lone lane included. Each lane's outcome is its decode alone's.
func (dd *dataDecode) run(rxs []*Receiver, pkts []*PacketResult, errs []error) {
	dd.done = grow(dd.done, len(pkts))
	for k, pkt := range pkts {
		dd.done[k] = pkt == nil
	}
	for lead, p := range pkts {
		if dd.done[lead] {
			continue
		}
		dd.lanes, dd.ids = dd.lanes[:0], dd.ids[:0]
		for k := lead; k < len(pkts); k++ {
			q := pkts[k]
			if dd.done[k] || q.Signal != p.Signal || len(q.EqualizedCarriers) != len(p.EqualizedCarriers) {
				continue
			}
			dd.done[k] = true
			dd.lanes = append(dd.lanes, phy.DataLane{Dec: rxs[k].dec, Carriers: q.EqualizedCarriers, CSI: q.CSI, Hard: rxs[k].HardDecisions})
			dd.ids = append(dd.ids, k)
		}
		phy.DecodeDataCarriersBatch(dd.lanes, p.Signal.Mode, p.Signal.Length)
		for j, k := range dd.ids {
			if err := dd.lanes[j].Err; err != nil {
				errs[k] = err
			} else {
				pkts[k].PSDU = dd.lanes[j].PSDU
			}
		}
	}
	clear(dd.lanes)
}

// DecodeDeferredBatch completes the DATA-field decode of deferred Receive
// results (Receiver.DeferDataDecode) with the decode Group.Receive runs:
// one lock-step pass per SIGNAL shape. Each lane's PSDU and error are
// bit-identical to what its non-deferred Receive would have produced.
//
// rxs[l] must be the receiver whose Receive produced pkts[l]. Lanes whose
// entry is nil or already decoded (non-nil PSDU) are skipped. The returned
// slice holds, per lane, the error the non-deferred Receive would have
// returned (nil on success); a failed lane's packet is lost exactly as in
// non-deferred operation.
func DecodeDeferredBatch(rxs []*Receiver, pkts []*PacketResult) []error {
	errs := make([]error, len(pkts))
	pend := make([]*PacketResult, len(pkts))
	for l, pkt := range pkts {
		if pkt != nil && pkt.PSDU == nil && rxs[l] != nil && rxs[l].dec != nil {
			pend[l] = pkt
		}
	}
	var dd dataDecode
	dd.run(rxs, pend, errs)
	return errs
}
