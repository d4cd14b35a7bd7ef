// acsgen generates acs_gen.go in internal/kernels: the fully unrolled,
// branchless add-compare-select step for the 802.11a K=7 convolutional code
// (generators 133/171 octal).
//
// The trellis structure is static, so the generator folds the per-edge branch
// signs into the emitted expressions as compile-time +/- operators (the
// runtime table lookups of the reference kernel disappear), unrolls all 32
// butterflies, and phrases the two survivor selections per target in the
// integer domain (math.Float64bits + guarded integer assignment) so the
// compiler lowers them to CMOV instead of data-dependent branches — the
// survivor choice is close to a coin flip per target, which makes a branchy
// select mispredict roughly every other decision.
//
// Bit-exactness argument, matching ACSStepRef op for op:
//   - a sign-folded "m - x" is IEEE-identical to "m + (-x)", which is what the
//     reference computes after selecting the negated table value;
//   - the integer-domain select copies the exact bit pattern of the float the
//     reference would have assigned, including -Inf payloads, and the
//     comparisons are the same strict > on the same operands in the same
//     order (even edge first, so metric ties keep the lower predecessor);
//   - the reference's "c0 > -Inf" initial guard differs from plain assignment
//     only when c0 is NaN, so the emitted kernel omits it and ACSRunBatch routes
//     any step that could produce a NaN candidate (non-finite branch metrics,
//     or a bank poisoned by one) to ACSStepRef instead.
//
// Usage: go run ./gen > acs_gen.go (from internal/kernels; see go:generate).
package main

import (
	"bufio"
	"fmt"
	"os"
)

const (
	numStates = 64
	genA      = 0o133
	genB      = 0o171
)

func parity7(v int) int {
	v &= 0x7F
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return v & 1
}

// edgeSigns returns the +1/-1 branch signs of generators A and B for the
// transition into target state s from predecessor p = ((s<<1)|r)&63.
func edgeSigns(s, r int) (sa, sb int) {
	p := ((s << 1) | r) & (numStates - 1)
	reg := (s>>5)<<6 | p
	sa, sb = 1-2*parity7(reg&genA), 1-2*parity7(reg&genB)
	return
}

// expr renders "(m +/- mA) +/- mB" with the signs folded into operators.
func expr(m string, sa, sb int) string {
	op := func(s int) string {
		if s > 0 {
			return "+"
		}
		return "-"
	}
	return fmt.Sprintf("(%s %s mA) %s mB", m, op(sa), op(sb))
}

func main() {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	fmt.Fprint(w, `// Code generated by gen/acsgen.go; DO NOT EDIT.

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
`)

	// One butterfly per target pair (s, s+32): shared predecessors 2s, 2s+1.
	for s := 0; s < numStates/2; s++ {
		p0, p1 := (2*s)&(numStates-1), (2*s+1)&(numStates-1)
		a0, b0 := edgeSigns(s, 0)
		a1, b1 := edgeSigns(s, 1)
		a2, b2 := edgeSigns(s+32, 0)
		a3, b3 := edgeSigns(s+32, 1)
		// The decision word is accumulated in four lanes to keep the OR
		// chain shallow; lane k collects bits k*16..k*16+15.
		lane := func(bit int) string { return fmt.Sprintf("dec%d", bit/16) }
		fmt.Fprintf(w, `
	{ // butterfly %d: predecessors %d, %d -> targets %d, %d
		m0, m1 := metric[%d], metric[%d]
		c0 := %s
		c1 := %s
		bb := math.Float64bits(c0)
		c1b := math.Float64bits(c1)
		var t uint64
		if c1 > c0 {
			bb = c1b
			t = 1
		}
		next[%d] = math.Float64frombits(bb)
		%s |= t << %d
		d0 := %s
		d1 := %s
		db := math.Float64bits(d0)
		d1b := math.Float64bits(d1)
		t = 0
		if d1 > d0 {
			db = d1b
			t = 1
		}
		next[%d] = math.Float64frombits(db)
		%s |= t << %d
	}
`,
			s, p0, p1, s, s+32,
			p0, p1,
			expr("m0", a0, b0), expr("m1", a1, b1),
			s, lane(s), s,
			expr("m0", a2, b2), expr("m1", a3, b3),
			s+32, lane(s+32), s+32,
		)
	}

	fmt.Fprint(w, `
	return dec0 | dec1 | dec2 | dec3
}
`)
}
