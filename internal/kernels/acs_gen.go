// Code generated by gen/acsgen.go; DO NOT EDIT.

package kernels

import "math"

// acsStepGo advances the 64-state rate-1/2 (133/171) trellis by one step:
// next[s] becomes the best of the two candidate path metrics into target s,
// and bit s of the returned word records which predecessor survived
// (0: even edge p=2s mod 64, 1: odd edge). metric holds the current path
// metrics; mA and mB are the step's two soft branch metrics (positive favors
// coded bit 0).
//
// Precondition (enforced by ACSRunBatch's dispatch): mA and mB are finite and
// metric contains no NaN and no +Inf, so no candidate sum can be NaN. Under
// that precondition the result is bit-identical to ACSStepRef — the
// reference's -Inf selection guard differs from plain assignment only for a
// NaN candidate, which cannot occur here (-Inf plus a finite metric stays
// -Inf).
//
// The body is the fully unrolled butterfly schedule with the static branch
// signs folded into the expressions and the survivor selection phrased as
// integer-domain conditional moves (the survivor choice is near a coin flip
// per target, so a branchy select would mispredict roughly every other
// decision); see gen/acsgen.go for the derivation.
//
// acsStepGo is the pure-Go twin of acsStepAsm (simd_amd64.s), which runs the
// same butterfly schedule four butterflies per AVX2 vector with per-butterfly
// arithmetic unchanged; the asmtwins suite pins the two bit-identical.
//
//lint:hotpath
func acsStepGo(next, metric *[64]float64, mA, mB float64) uint64 {
	var dec0, dec1, dec2, dec3 uint64

	{ // butterfly 0: predecessors 0, 1 -> targets 0, 32
		m0, m1 := metric[0], metric[1]
		c0 := (m0 + mA) + mB
		c1 := (m1 - mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[0] = math.Float64frombits(bb)
		dec0 |= t << 0
		d0 := (m0 - mA) - mB
		d1 := (m1 + mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[32] = math.Float64frombits(db)
		dec2 |= t << 32
	}

	{ // butterfly 1: predecessors 2, 3 -> targets 1, 33
		m0, m1 := metric[2], metric[3]
		c0 := (m0 - mA) + mB
		c1 := (m1 + mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[1] = math.Float64frombits(bb)
		dec0 |= t << 1
		d0 := (m0 + mA) - mB
		d1 := (m1 - mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[33] = math.Float64frombits(db)
		dec2 |= t << 33
	}

	{ // butterfly 2: predecessors 4, 5 -> targets 2, 34
		m0, m1 := metric[4], metric[5]
		c0 := (m0 + mA) + mB
		c1 := (m1 - mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[2] = math.Float64frombits(bb)
		dec0 |= t << 2
		d0 := (m0 - mA) - mB
		d1 := (m1 + mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[34] = math.Float64frombits(db)
		dec2 |= t << 34
	}

	{ // butterfly 3: predecessors 6, 7 -> targets 3, 35
		m0, m1 := metric[6], metric[7]
		c0 := (m0 - mA) + mB
		c1 := (m1 + mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[3] = math.Float64frombits(bb)
		dec0 |= t << 3
		d0 := (m0 + mA) - mB
		d1 := (m1 - mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[35] = math.Float64frombits(db)
		dec2 |= t << 35
	}

	{ // butterfly 4: predecessors 8, 9 -> targets 4, 36
		m0, m1 := metric[8], metric[9]
		c0 := (m0 - mA) - mB
		c1 := (m1 + mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[4] = math.Float64frombits(bb)
		dec0 |= t << 4
		d0 := (m0 + mA) + mB
		d1 := (m1 - mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[36] = math.Float64frombits(db)
		dec2 |= t << 36
	}

	{ // butterfly 5: predecessors 10, 11 -> targets 5, 37
		m0, m1 := metric[10], metric[11]
		c0 := (m0 + mA) - mB
		c1 := (m1 - mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[5] = math.Float64frombits(bb)
		dec0 |= t << 5
		d0 := (m0 - mA) + mB
		d1 := (m1 + mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[37] = math.Float64frombits(db)
		dec2 |= t << 37
	}

	{ // butterfly 6: predecessors 12, 13 -> targets 6, 38
		m0, m1 := metric[12], metric[13]
		c0 := (m0 - mA) - mB
		c1 := (m1 + mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[6] = math.Float64frombits(bb)
		dec0 |= t << 6
		d0 := (m0 + mA) + mB
		d1 := (m1 - mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[38] = math.Float64frombits(db)
		dec2 |= t << 38
	}

	{ // butterfly 7: predecessors 14, 15 -> targets 7, 39
		m0, m1 := metric[14], metric[15]
		c0 := (m0 + mA) - mB
		c1 := (m1 - mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[7] = math.Float64frombits(bb)
		dec0 |= t << 7
		d0 := (m0 - mA) + mB
		d1 := (m1 + mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[39] = math.Float64frombits(db)
		dec2 |= t << 39
	}

	{ // butterfly 8: predecessors 16, 17 -> targets 8, 40
		m0, m1 := metric[16], metric[17]
		c0 := (m0 - mA) - mB
		c1 := (m1 + mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[8] = math.Float64frombits(bb)
		dec0 |= t << 8
		d0 := (m0 + mA) + mB
		d1 := (m1 - mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[40] = math.Float64frombits(db)
		dec2 |= t << 40
	}

	{ // butterfly 9: predecessors 18, 19 -> targets 9, 41
		m0, m1 := metric[18], metric[19]
		c0 := (m0 + mA) - mB
		c1 := (m1 - mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[9] = math.Float64frombits(bb)
		dec0 |= t << 9
		d0 := (m0 - mA) + mB
		d1 := (m1 + mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[41] = math.Float64frombits(db)
		dec2 |= t << 41
	}

	{ // butterfly 10: predecessors 20, 21 -> targets 10, 42
		m0, m1 := metric[20], metric[21]
		c0 := (m0 - mA) - mB
		c1 := (m1 + mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[10] = math.Float64frombits(bb)
		dec0 |= t << 10
		d0 := (m0 + mA) + mB
		d1 := (m1 - mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[42] = math.Float64frombits(db)
		dec2 |= t << 42
	}

	{ // butterfly 11: predecessors 22, 23 -> targets 11, 43
		m0, m1 := metric[22], metric[23]
		c0 := (m0 + mA) - mB
		c1 := (m1 - mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[11] = math.Float64frombits(bb)
		dec0 |= t << 11
		d0 := (m0 - mA) + mB
		d1 := (m1 + mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[43] = math.Float64frombits(db)
		dec2 |= t << 43
	}

	{ // butterfly 12: predecessors 24, 25 -> targets 12, 44
		m0, m1 := metric[24], metric[25]
		c0 := (m0 + mA) + mB
		c1 := (m1 - mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[12] = math.Float64frombits(bb)
		dec0 |= t << 12
		d0 := (m0 - mA) - mB
		d1 := (m1 + mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[44] = math.Float64frombits(db)
		dec2 |= t << 44
	}

	{ // butterfly 13: predecessors 26, 27 -> targets 13, 45
		m0, m1 := metric[26], metric[27]
		c0 := (m0 - mA) + mB
		c1 := (m1 + mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[13] = math.Float64frombits(bb)
		dec0 |= t << 13
		d0 := (m0 + mA) - mB
		d1 := (m1 - mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[45] = math.Float64frombits(db)
		dec2 |= t << 45
	}

	{ // butterfly 14: predecessors 28, 29 -> targets 14, 46
		m0, m1 := metric[28], metric[29]
		c0 := (m0 + mA) + mB
		c1 := (m1 - mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[14] = math.Float64frombits(bb)
		dec0 |= t << 14
		d0 := (m0 - mA) - mB
		d1 := (m1 + mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[46] = math.Float64frombits(db)
		dec2 |= t << 46
	}

	{ // butterfly 15: predecessors 30, 31 -> targets 15, 47
		m0, m1 := metric[30], metric[31]
		c0 := (m0 - mA) + mB
		c1 := (m1 + mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[15] = math.Float64frombits(bb)
		dec0 |= t << 15
		d0 := (m0 + mA) - mB
		d1 := (m1 - mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[47] = math.Float64frombits(db)
		dec2 |= t << 47
	}

	{ // butterfly 16: predecessors 32, 33 -> targets 16, 48
		m0, m1 := metric[32], metric[33]
		c0 := (m0 + mA) - mB
		c1 := (m1 - mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[16] = math.Float64frombits(bb)
		dec1 |= t << 16
		d0 := (m0 - mA) + mB
		d1 := (m1 + mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[48] = math.Float64frombits(db)
		dec3 |= t << 48
	}

	{ // butterfly 17: predecessors 34, 35 -> targets 17, 49
		m0, m1 := metric[34], metric[35]
		c0 := (m0 - mA) - mB
		c1 := (m1 + mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[17] = math.Float64frombits(bb)
		dec1 |= t << 17
		d0 := (m0 + mA) + mB
		d1 := (m1 - mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[49] = math.Float64frombits(db)
		dec3 |= t << 49
	}

	{ // butterfly 18: predecessors 36, 37 -> targets 18, 50
		m0, m1 := metric[36], metric[37]
		c0 := (m0 + mA) - mB
		c1 := (m1 - mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[18] = math.Float64frombits(bb)
		dec1 |= t << 18
		d0 := (m0 - mA) + mB
		d1 := (m1 + mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[50] = math.Float64frombits(db)
		dec3 |= t << 50
	}

	{ // butterfly 19: predecessors 38, 39 -> targets 19, 51
		m0, m1 := metric[38], metric[39]
		c0 := (m0 - mA) - mB
		c1 := (m1 + mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[19] = math.Float64frombits(bb)
		dec1 |= t << 19
		d0 := (m0 + mA) + mB
		d1 := (m1 - mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[51] = math.Float64frombits(db)
		dec3 |= t << 51
	}

	{ // butterfly 20: predecessors 40, 41 -> targets 20, 52
		m0, m1 := metric[40], metric[41]
		c0 := (m0 - mA) + mB
		c1 := (m1 + mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[20] = math.Float64frombits(bb)
		dec1 |= t << 20
		d0 := (m0 + mA) - mB
		d1 := (m1 - mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[52] = math.Float64frombits(db)
		dec3 |= t << 52
	}

	{ // butterfly 21: predecessors 42, 43 -> targets 21, 53
		m0, m1 := metric[42], metric[43]
		c0 := (m0 + mA) + mB
		c1 := (m1 - mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[21] = math.Float64frombits(bb)
		dec1 |= t << 21
		d0 := (m0 - mA) - mB
		d1 := (m1 + mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[53] = math.Float64frombits(db)
		dec3 |= t << 53
	}

	{ // butterfly 22: predecessors 44, 45 -> targets 22, 54
		m0, m1 := metric[44], metric[45]
		c0 := (m0 - mA) + mB
		c1 := (m1 + mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[22] = math.Float64frombits(bb)
		dec1 |= t << 22
		d0 := (m0 + mA) - mB
		d1 := (m1 - mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[54] = math.Float64frombits(db)
		dec3 |= t << 54
	}

	{ // butterfly 23: predecessors 46, 47 -> targets 23, 55
		m0, m1 := metric[46], metric[47]
		c0 := (m0 + mA) + mB
		c1 := (m1 - mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[23] = math.Float64frombits(bb)
		dec1 |= t << 23
		d0 := (m0 - mA) - mB
		d1 := (m1 + mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[55] = math.Float64frombits(db)
		dec3 |= t << 55
	}

	{ // butterfly 24: predecessors 48, 49 -> targets 24, 56
		m0, m1 := metric[48], metric[49]
		c0 := (m0 - mA) + mB
		c1 := (m1 + mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[24] = math.Float64frombits(bb)
		dec1 |= t << 24
		d0 := (m0 + mA) - mB
		d1 := (m1 - mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[56] = math.Float64frombits(db)
		dec3 |= t << 56
	}

	{ // butterfly 25: predecessors 50, 51 -> targets 25, 57
		m0, m1 := metric[50], metric[51]
		c0 := (m0 + mA) + mB
		c1 := (m1 - mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[25] = math.Float64frombits(bb)
		dec1 |= t << 25
		d0 := (m0 - mA) - mB
		d1 := (m1 + mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[57] = math.Float64frombits(db)
		dec3 |= t << 57
	}

	{ // butterfly 26: predecessors 52, 53 -> targets 26, 58
		m0, m1 := metric[52], metric[53]
		c0 := (m0 - mA) + mB
		c1 := (m1 + mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[26] = math.Float64frombits(bb)
		dec1 |= t << 26
		d0 := (m0 + mA) - mB
		d1 := (m1 - mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[58] = math.Float64frombits(db)
		dec3 |= t << 58
	}

	{ // butterfly 27: predecessors 54, 55 -> targets 27, 59
		m0, m1 := metric[54], metric[55]
		c0 := (m0 + mA) + mB
		c1 := (m1 - mA) - mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[27] = math.Float64frombits(bb)
		dec1 |= t << 27
		d0 := (m0 - mA) - mB
		d1 := (m1 + mA) + mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[59] = math.Float64frombits(db)
		dec3 |= t << 59
	}

	{ // butterfly 28: predecessors 56, 57 -> targets 28, 60
		m0, m1 := metric[56], metric[57]
		c0 := (m0 + mA) - mB
		c1 := (m1 - mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[28] = math.Float64frombits(bb)
		dec1 |= t << 28
		d0 := (m0 - mA) + mB
		d1 := (m1 + mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[60] = math.Float64frombits(db)
		dec3 |= t << 60
	}

	{ // butterfly 29: predecessors 58, 59 -> targets 29, 61
		m0, m1 := metric[58], metric[59]
		c0 := (m0 - mA) - mB
		c1 := (m1 + mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[29] = math.Float64frombits(bb)
		dec1 |= t << 29
		d0 := (m0 + mA) + mB
		d1 := (m1 - mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[61] = math.Float64frombits(db)
		dec3 |= t << 61
	}

	{ // butterfly 30: predecessors 60, 61 -> targets 30, 62
		m0, m1 := metric[60], metric[61]
		c0 := (m0 + mA) - mB
		c1 := (m1 - mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[30] = math.Float64frombits(bb)
		dec1 |= t << 30
		d0 := (m0 - mA) + mB
		d1 := (m1 + mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[62] = math.Float64frombits(db)
		dec3 |= t << 62
	}

	{ // butterfly 31: predecessors 62, 63 -> targets 31, 63
		m0, m1 := metric[62], metric[63]
		c0 := (m0 - mA) - mB
		c1 := (m1 + mA) + mB
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[31] = math.Float64frombits(bb)
		dec1 |= t << 31
		d0 := (m0 + mA) + mB
		d1 := (m1 - mA) - mB
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[63] = math.Float64frombits(db)
		dec3 |= t << 63
	}

	return dec0 | dec1 | dec2 | dec3
}
