package phy

import "fmt"

// interleaveIndex returns the transmit position of coded bit k within one
// OFDM symbol of ncbps coded bits with nbpsc bits per subcarrier, applying
// the two clause-17.3.5.6 permutations.
func interleaveIndex(k, ncbps, nbpsc int) int {
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	i := (ncbps / 16) * (k % 16) // first permutation: adjacent coded bits
	i += k / 16                  // onto nonadjacent subcarriers
	// Second permutation: rotate within subcarrier bit positions so that
	// adjacent coded bits alternate between more and less significant bits.
	j := s*(i/s) + (i+ncbps-(16*i)/ncbps)%s
	return j
}

// interleaveTables holds the precomputed permutation for each clause-17
// NBPSC (the index math is pure in (k, ncbps, nbpsc), and NCBPS is always
// 48·NBPSC), so the per-symbol hot path is a table walk.
var interleaveTables = buildInterleaveTables()

func buildInterleaveTables() map[int][]int {
	tables := make(map[int][]int, 4)
	for _, nbpsc := range []int{1, 2, 4, 6} {
		ncbps := NumDataCarriers * nbpsc
		t := make([]int, ncbps)
		for k := range t {
			t[k] = interleaveIndex(k, ncbps, nbpsc)
		}
		tables[nbpsc] = t
	}
	return tables
}

// interleaveTable returns the permutation table for the mode: position k of
// the coded stream is transmitted at position table[k].
func interleaveTable(mode Mode) []int {
	if t, ok := interleaveTables[mode.NBPSC()]; ok && len(t) == mode.NCBPS() {
		return t
	}
	ncbps := mode.NCBPS()
	t := make([]int, ncbps)
	for k := range t {
		t[k] = interleaveIndex(k, ncbps, mode.NBPSC())
	}
	return t
}

// planarTables holds, per clause-17 NBPSC, the deinterleaver's table over
// bit planes: position k of the coded stream reads plane j's carrier c,
// index j*NumDataCarriers+c, where the interleaver sends it to bit j of
// carrier c (kernels.DemapSoft's layout).
var planarTables = func() map[int][]int {
	tables := make(map[int][]int, len(interleaveTables))
	for nbpsc, t := range interleaveTables {
		p := make([]int, len(t))
		for k, pos := range t {
			p[k] = (pos%nbpsc)*NumDataCarriers + pos/nbpsc
		}
		tables[nbpsc] = p
	}
	return tables
}()

// deinterleavePlanes returns the mode's planar deinterleaver table (nil for
// a shape outside clause 17).
func deinterleavePlanes(mode Mode) []int {
	if t := planarTables[mode.NBPSC()]; len(t) == mode.NCBPS() {
		return t
	}
	return nil
}

// Interleave permutes one OFDM symbol's worth of coded bits. len(bits) must
// equal the mode's NCBPS.
func Interleave(bits []byte, mode Mode) ([]byte, error) {
	return InterleaveInto(nil, bits, mode)
}

// InterleaveInto is Interleave writing into dst (grown if its capacity is
// short, reused otherwise). dst must not alias bits.
func InterleaveInto(dst, bits []byte, mode Mode) ([]byte, error) {
	ncbps := mode.NCBPS()
	if len(bits) != ncbps {
		return nil, fmt.Errorf("phy: interleaver input %d bits, want %d", len(bits), ncbps)
	}
	if cap(dst) < ncbps {
		dst = make([]byte, ncbps)
	}
	out := dst[:ncbps]
	for k, pos := range interleaveTable(mode) {
		out[pos] = bits[k]
	}
	return out, nil
}

// DeinterleaveSoftInto inverts the interleaver on soft metrics, writing into
// dst (grown if its capacity is short, reused otherwise). dst must not alias
// soft.
func DeinterleaveSoftInto(dst, soft []float64, mode Mode) ([]float64, error) {
	ncbps := mode.NCBPS()
	if len(soft) != ncbps {
		return nil, fmt.Errorf("phy: deinterleaver input %d metrics, want %d", len(soft), ncbps)
	}
	if cap(dst) < ncbps {
		dst = make([]float64, ncbps)
	}
	out := dst[:ncbps]
	for k, pos := range interleaveTable(mode) {
		out[k] = soft[pos]
	}
	return out, nil
}
