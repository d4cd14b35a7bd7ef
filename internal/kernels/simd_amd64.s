//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernel tier. Bit-exactness is by construction: every ymm lane carries
// one scalar dependency chain of the pure-Go twin (one FIR output, one
// biquad lane, one mixer sample, one ACS butterfly, one correlation
// accumulator), the operation order within each chain is the twin's, there
// is no FMA contraction (multiplies and adds stay separate, rounding once
// each, exactly like the Go compiler's lowering, which never fuses), and
// sign flips use IEEE sign-bit XOR, which is exact negation. Comparisons use
// the ordered non-signaling predicate GT_OQ ($30), the vector equivalent of
// Go's > on the same operands.

DATA signBit<>+0(SB)/8, $0x8000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $8

// {+0, -0, +0, -0}: XOR flips the sign of lanes 1 and 3 only (corrPairAsm's
// {+ri, -ri, +ri, -ri} operand).
DATA corrSign<>+0(SB)/8, $0x0000000000000000
DATA corrSign<>+8(SB)/8, $0x8000000000000000
DATA corrSign<>+16(SB)/8, $0x0000000000000000
DATA corrSign<>+24(SB)/8, $0x8000000000000000
GLOBL corrSign<>(SB), RODATA|NOPTR, $32

// func acsStepAsm(next, metric *[64]float64, mA, mB float64) uint64
//
// One trellis step, four butterflies per iteration, eight unrolled
// iterations. Butterfly s (targets s and s+32, predecessors 2s and 2s+1)
// computes, with (a,b) the sign-masked branch metrics of the even edge
// (acsMaskA/acsMaskB XOR the broadcast mA/mB) and (-a,-b) their exact
// negations (sign-bit XOR):
//
//	c0 = (m[2s] + a) + b      c1 = (m[2s+1] - a) - b     -> next[s]
//	d0 = (m[2s] - a) - b      d1 = (m[2s+1] + a) + b     -> next[s+32]
//
// survivor = blend on c1 > c0 (GT_OQ), decision bit = the compare mask —
// the same strict > on the same operands as the Go twin, and the blend
// copies the exact candidate bit pattern. Even/odd predecessor metrics are
// deinterleaved with VSHUFPD+VPERMPD (pure data movement).
//
// Register plan: DI next, SI metric, R8/R9 mask tables, R10/R11 decision
// accumulators (targets 0-31 / 32-63), Y8 mA, Y9 mB, Y10 sign bit.
#define ACSQUAD(MOFF, KOFF, COFF, DOFF, SHC, SHD) \
	VMOVUPD   MOFF(SI), Y0       \ // metric[8j .. 8j+3]
	VMOVUPD   (MOFF+32)(SI), Y1  \ // metric[8j+4 .. 8j+7]
	VSHUFPD   $0, Y1, Y0, Y2     \
	VPERMPD   $0xD8, Y2, Y2      \ // m0 = even predecessors
	VSHUFPD   $15, Y1, Y0, Y3    \
	VPERMPD   $0xD8, Y3, Y3      \ // m1 = odd predecessors
	VMOVUPD   ·acsMaskA+KOFF(SB), Y4 \
	VXORPD    Y8, Y4, Y4         \ // a  (even-edge signed mA)
	VMOVUPD   ·acsMaskB+KOFF(SB), Y5 \
	VXORPD    Y9, Y5, Y5         \ // b
	VXORPD    Y10, Y4, Y6        \ // -a
	VXORPD    Y10, Y5, Y7        \ // -b
	VADDPD    Y4, Y2, Y11        \
	VADDPD    Y5, Y11, Y11       \ // c0 = (m0 + a) + b
	VADDPD    Y6, Y3, Y12        \
	VADDPD    Y7, Y12, Y12       \ // c1 = (m1 - a) - b
	VCMPPD    $30, Y11, Y12, Y13 \ // c1 > c0
	VBLENDVPD Y13, Y12, Y11, Y14 \
	VMOVUPD   Y14, COFF(DI)      \ // next[s..s+3]
	VMOVMSKPD Y13, AX            \
	SHLQ      $SHC, AX           \
	ORQ       AX, R10            \
	VADDPD    Y6, Y2, Y11        \
	VADDPD    Y7, Y11, Y11       \ // d0 = (m0 - a) - b
	VADDPD    Y4, Y3, Y12        \
	VADDPD    Y5, Y12, Y12       \ // d1 = (m1 + a) + b
	VCMPPD    $30, Y11, Y12, Y13 \
	VBLENDVPD Y13, Y12, Y11, Y14 \
	VMOVUPD   Y14, DOFF(DI)      \ // next[s+32..s+35]
	VMOVMSKPD Y13, AX            \
	SHLQ      $SHD, AX           \
	ORQ       AX, R11

TEXT ·acsStepAsm(SB), NOSPLIT, $0-40
	MOVQ         next+0(FP), DI
	MOVQ         metric+8(FP), SI
	VBROADCASTSD mA+16(FP), Y8
	VBROADCASTSD mB+24(FP), Y9
	VBROADCASTSD signBit<>(SB), Y10
	XORQ         R10, R10
	XORQ         R11, R11

	ACSQUAD(0, 0, 0, 256, 0, 32)
	ACSQUAD(64, 32, 32, 288, 4, 36)
	ACSQUAD(128, 64, 64, 320, 8, 40)
	ACSQUAD(192, 96, 96, 352, 12, 44)
	ACSQUAD(256, 128, 128, 384, 16, 48)
	ACSQUAD(320, 160, 160, 416, 20, 52)
	ACSQUAD(384, 192, 192, 448, 24, 56)
	ACSQUAD(448, 224, 224, 480, 28, 60)

	ORQ  R11, R10
	MOVQ R10, ret+32(FP)
	VZEROUPPER
	RET

// func firRealAsm(yr, yi, xr, xi, taps []float64)
//
// Four outputs per iteration: lane L of the accumulator is output i+L, taps
// broadcast, windows loaded as contiguous quads walking downward (output
// i+L reads xr[i+L+last-d]). Accumulation order per output is tap-ascending,
// exactly the Go twin's chain. len(yr) > 0 and a multiple of 4.
TEXT ·firRealAsm(SB), NOSPLIT, $0-120
	MOVQ yr_base+0(FP), DI
	MOVQ yr_len+8(FP), CX
	MOVQ yi_base+24(FP), R8
	MOVQ xr_base+48(FP), SI
	MOVQ xi_base+72(FP), R9
	MOVQ taps_base+96(FP), R10
	MOVQ taps_len+104(FP), BX

	// Point SI/R9 at extended sample last = len(taps)-1, the window end of
	// output 0 (address arithmetic only; never dereferenced when BX == 0).
	LEAQ -8(SI)(BX*8), SI
	LEAQ -8(R9)(BX*8), R9
	XORQ DX, DX

firreal_outer:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ   (SI)(DX*8), R12
	LEAQ   (R9)(DX*8), R13
	MOVQ   R10, R14
	MOVQ   BX, R15
	TESTQ  R15, R15
	JE     firreal_store

firreal_inner:
	VBROADCASTSD (R14), Y2
	VMOVUPD      (R12), Y3
	VMULPD       Y2, Y3, Y4
	VADDPD       Y4, Y0, Y0
	VMOVUPD      (R13), Y5
	VMULPD       Y2, Y5, Y6
	VADDPD       Y6, Y1, Y1
	ADDQ         $8, R14
	SUBQ         $8, R12
	SUBQ         $8, R13
	DECQ         R15
	JNE          firreal_inner

firreal_store:
	VMOVUPD Y0, (DI)(DX*8)
	VMOVUPD Y1, (R8)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     firreal_outer
	VZEROUPPER
	RET

// func firCplxAsm(yr, yi, xr, xi, tr, ti []float64)
//
// Complex-tap variant: per tap, re += wr*cr - wi*ci and im += wr*ci + wi*cr
// with each multiply rounded individually before the combine — the Go twin's
// exact sequence. len(yr) > 0 and a multiple of 4.
TEXT ·firCplxAsm(SB), NOSPLIT, $0-144
	MOVQ yr_base+0(FP), DI
	MOVQ yr_len+8(FP), CX
	MOVQ yi_base+24(FP), R8
	MOVQ xr_base+48(FP), SI
	MOVQ xi_base+72(FP), R9
	MOVQ tr_base+96(FP), R10
	MOVQ ti_base+120(FP), R11
	MOVQ tr_len+104(FP), BX
	LEAQ -8(SI)(BX*8), SI
	LEAQ -8(R9)(BX*8), R9
	XORQ DX, DX

fircplx_outer:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ   (SI)(DX*8), R12
	LEAQ   (R9)(DX*8), R13
	MOVQ   R10, R14
	MOVQ   R11, R15
	MOVQ   BX, AX
	TESTQ  AX, AX
	JE     fircplx_store

fircplx_inner:
	VBROADCASTSD (R14), Y2 // cr
	VBROADCASTSD (R15), Y3 // ci
	VMOVUPD      (R12), Y4 // wr
	VMOVUPD      (R13), Y5 // wi
	VMULPD       Y2, Y4, Y6
	VMULPD       Y3, Y5, Y7
	VSUBPD       Y7, Y6, Y6 // wr*cr - wi*ci
	VADDPD       Y6, Y0, Y0
	VMULPD       Y3, Y4, Y6
	VMULPD       Y2, Y5, Y7
	VADDPD       Y7, Y6, Y6 // wr*ci + wi*cr
	VADDPD       Y6, Y1, Y1
	ADDQ         $8, R14
	ADDQ         $8, R15
	SUBQ         $8, R12
	SUBQ         $8, R13
	DECQ         AX
	JNE          fircplx_inner

fircplx_store:
	VMOVUPD Y0, (DI)(DX*8)
	VMOVUPD Y1, (R8)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     fircplx_outer
	VZEROUPPER
	RET

// func mixApplyAsm(xr, xi []float64, mur, mui, nur, nui, g, dcr, dci float64)
//
// Four independent samples per iteration; ci = -vi via sign-bit XOR, then
// the twin's exact sequence: yr = (mur*vr - mui*vi) + (nur*vr - nui*ci),
// yi = (mur*vi + mui*vr) + (nur*ci + nui*vr), out = g*y + dc.
// len(xr) > 0 and a multiple of 4.
TEXT ·mixApplyAsm(SB), NOSPLIT, $0-104
	MOVQ         xr_base+0(FP), SI
	MOVQ         xr_len+8(FP), CX
	MOVQ         xi_base+24(FP), DI
	VBROADCASTSD mur+48(FP), Y9
	VBROADCASTSD mui+56(FP), Y10
	VBROADCASTSD nur+64(FP), Y11
	VBROADCASTSD nui+72(FP), Y12
	VBROADCASTSD gain+80(FP), Y13
	VBROADCASTSD dcr+88(FP), Y14
	VBROADCASTSD dci+96(FP), Y15
	VBROADCASTSD signBit<>(SB), Y8
	XORQ         DX, DX

mixapply_loop:
	VMOVUPD (SI)(DX*8), Y0  // vr
	VMOVUPD (DI)(DX*8), Y1  // vi
	VXORPD  Y8, Y1, Y2      // ci = -vi
	VMULPD  Y9, Y0, Y3
	VMULPD  Y10, Y1, Y4
	VSUBPD  Y4, Y3, Y3      // mur*vr - mui*vi
	VMULPD  Y11, Y0, Y4
	VMULPD  Y12, Y2, Y5
	VSUBPD  Y5, Y4, Y4      // nur*vr - nui*ci
	VADDPD  Y4, Y3, Y3      // yr
	VMULPD  Y9, Y1, Y4
	VMULPD  Y10, Y0, Y5
	VADDPD  Y5, Y4, Y4      // mur*vi + mui*vr
	VMULPD  Y11, Y2, Y5
	VMULPD  Y12, Y0, Y6
	VADDPD  Y6, Y5, Y5      // nur*ci + nui*vr
	VADDPD  Y5, Y4, Y4      // yi
	VMULPD  Y13, Y3, Y3
	VADDPD  Y14, Y3, Y3     // g*yr + dcr
	VMOVUPD Y3, (SI)(DX*8)
	VMULPD  Y13, Y4, Y4
	VADDPD  Y15, Y4, Y4     // g*yi + dci
	VMOVUPD Y4, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     mixapply_loop
	VZEROUPPER
	RET

// func mixApplyLOAsm(xr, xi, lor, loi []float64, mur, mui, nur, nui, g, dcr, dci float64)
//
// mixApplyAsm plus the LO rotation zr = yr*lr - yi*li, zi = yr*li + yi*lr
// before the gain/DC stage. len(xr) > 0 and a multiple of 4.
TEXT ·mixApplyLOAsm(SB), NOSPLIT, $0-152
	MOVQ         xr_base+0(FP), SI
	MOVQ         xr_len+8(FP), CX
	MOVQ         xi_base+24(FP), DI
	MOVQ         lor_base+48(FP), R8
	MOVQ         loi_base+72(FP), R9
	VBROADCASTSD mur+96(FP), Y9
	VBROADCASTSD mui+104(FP), Y10
	VBROADCASTSD nur+112(FP), Y11
	VBROADCASTSD nui+120(FP), Y12
	VBROADCASTSD gain+128(FP), Y13
	VBROADCASTSD dcr+136(FP), Y14
	VBROADCASTSD dci+144(FP), Y15
	VBROADCASTSD signBit<>(SB), Y8
	XORQ         DX, DX

mixapplylo_loop:
	VMOVUPD (SI)(DX*8), Y0
	VMOVUPD (DI)(DX*8), Y1
	VXORPD  Y8, Y1, Y2
	VMULPD  Y9, Y0, Y3
	VMULPD  Y10, Y1, Y4
	VSUBPD  Y4, Y3, Y3
	VMULPD  Y11, Y0, Y4
	VMULPD  Y12, Y2, Y5
	VSUBPD  Y5, Y4, Y4
	VADDPD  Y4, Y3, Y3      // yr
	VMULPD  Y9, Y1, Y4
	VMULPD  Y10, Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y11, Y2, Y5
	VMULPD  Y12, Y0, Y6
	VADDPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4      // yi
	VMOVUPD (R8)(DX*8), Y5  // lr
	VMOVUPD (R9)(DX*8), Y6  // li
	VMULPD  Y5, Y3, Y0
	VMULPD  Y6, Y4, Y1
	VSUBPD  Y1, Y0, Y0      // zr = yr*lr - yi*li
	VMULPD  Y6, Y3, Y1
	VMULPD  Y5, Y4, Y2
	VADDPD  Y2, Y1, Y1      // zi = yr*li + yi*lr
	VMULPD  Y13, Y0, Y0
	VADDPD  Y14, Y0, Y0
	VMOVUPD Y0, (SI)(DX*8)
	VMULPD  Y13, Y1, Y1
	VADDPD  Y15, Y1, Y1
	VMOVUPD Y1, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     mixapplylo_loop
	VZEROUPPER
	RET

// func biquadQuadAsm(re, im [][]float64, b0, b1, b2, a1, a2 float64, s1r, s1i, s2r, s2i []float64)
//
// Four lanes, one per vector lane, sample-major; the four delay-state pairs
// live in Y0-Y3 across the whole sample loop. Per sample the update is the
// scalar sequence: yr = b0*xr + s1, s1' = (b1*xr - a1*yr) + s2,
// s2' = b2*xr - a2*yr (same for the imaginary plane). Lane gathers and
// scatters are scalar 8-byte moves (pure data movement).
TEXT ·biquadQuadAsm(SB), NOSPLIT, $0-184
	MOVQ re_base+0(FP), AX
	MOVQ 0(AX), R8   // re[0] data
	MOVQ 24(AX), R9  // re[1]
	MOVQ 48(AX), R10 // re[2]
	MOVQ 72(AX), R11 // re[3]
	MOVQ im_base+24(FP), BX
	MOVQ 0(BX), R12
	MOVQ 24(BX), R13
	MOVQ 48(BX), R14
	MOVQ 72(BX), R15
	MOVQ 8(AX), DX   // n = len(re[0])

	VBROADCASTSD b0+48(FP), Y11
	VBROADCASTSD b1+56(FP), Y12
	VBROADCASTSD b2+64(FP), Y13
	VBROADCASTSD a1+72(FP), Y14
	VBROADCASTSD a2+80(FP), Y15

	MOVQ    s1r_base+88(FP), AX
	VMOVUPD (AX), Y0
	MOVQ    s1i_base+112(FP), AX
	VMOVUPD (AX), Y1
	MOVQ    s2r_base+136(FP), AX
	VMOVUPD (AX), Y2
	MOVQ    s2i_base+160(FP), AX
	VMOVUPD (AX), Y3
	XORQ    CX, CX

biquad_loop:
	CMPQ CX, DX
	JGE  biquad_done

	// Gather xr = {re[0][k], re[1][k], re[2][k], re[3][k]}, likewise xi.
	VMOVSD       (R8)(CX*8), X4
	VMOVHPD      (R9)(CX*8), X4, X4
	VMOVSD       (R10)(CX*8), X10
	VMOVHPD      (R11)(CX*8), X10, X10
	VINSERTF128  $1, X10, Y4, Y4
	VMOVSD       (R12)(CX*8), X5
	VMOVHPD      (R13)(CX*8), X5, X5
	VMOVSD       (R14)(CX*8), X10
	VMOVHPD      (R15)(CX*8), X10, X10
	VINSERTF128  $1, X10, Y5, Y5

	VMULPD Y4, Y11, Y6
	VADDPD Y0, Y6, Y6  // yr = b0*xr + s1r
	VMULPD Y5, Y11, Y7
	VADDPD Y1, Y7, Y7  // yi = b0*xi + s1i
	VMULPD Y4, Y12, Y8
	VMULPD Y6, Y14, Y9
	VSUBPD Y9, Y8, Y8
	VADDPD Y2, Y8, Y0  // s1r' = (b1*xr - a1*yr) + s2r
	VMULPD Y5, Y12, Y8
	VMULPD Y7, Y14, Y9
	VSUBPD Y9, Y8, Y8
	VADDPD Y3, Y8, Y1  // s1i' = (b1*xi - a1*yi) + s2i
	VMULPD Y4, Y13, Y8
	VMULPD Y6, Y15, Y9
	VSUBPD Y9, Y8, Y2  // s2r' = b2*xr - a2*yr
	VMULPD Y5, Y13, Y8
	VMULPD Y7, Y15, Y9
	VSUBPD Y9, Y8, Y3  // s2i' = b2*xi - a2*yi

	// Scatter yr/yi back to the four lanes in place.
	VMOVSD       X6, (R8)(CX*8)
	VMOVHPD      X6, (R9)(CX*8)
	VEXTRACTF128 $1, Y6, X10
	VMOVSD       X10, (R10)(CX*8)
	VMOVHPD      X10, (R11)(CX*8)
	VMOVSD       X7, (R12)(CX*8)
	VMOVHPD      X7, (R13)(CX*8)
	VEXTRACTF128 $1, Y7, X10
	VMOVSD       X10, (R14)(CX*8)
	VMOVHPD      X10, (R15)(CX*8)

	INCQ CX
	JMP  biquad_loop

biquad_done:
	MOVQ    s1r_base+88(FP), AX
	VMOVUPD Y0, (AX)
	MOVQ    s1i_base+112(FP), AX
	VMOVUPD Y1, (AX)
	MOVQ    s2r_base+136(FP), AX
	VMOVUPD Y2, (AX)
	MOVQ    s2i_base+160(FP), AX
	VMOVUPD Y3, (AX)
	VZEROUPPER
	RET

// func corrPairAsm(x1, x2, ref []complex128) (s1r, s1im, s2r, s2im float64)
//
// The four accumulator chains s1re/s1im/s2re/s2im ride the four lanes of
// Y0. Per tap: {a,b,c,d} = x1[k] ++ x2[k] (interleaved re/im pairs),
// swapped copy {b,a,d,c} via VPERMILPD, broadcast rr and {+ri,-ri,+ri,-ri},
// then acc += lane*rr + swapped*(+/-ri) — per lane exactly the twin's
// a*rr + b*ri, b*rr - a*ri, c*rr + d*ri, d*rr - c*ri (multiplying by the
// exactly-negated ri rounds identically to subtracting the product).
TEXT ·corrPairAsm(SB), NOSPLIT, $0-104
	MOVQ    x1_base+0(FP), SI
	MOVQ    x2_base+24(FP), DI
	MOVQ    ref_base+48(FP), R8
	MOVQ    ref_len+56(FP), CX
	VXORPD  Y0, Y0, Y0
	VMOVUPD corrSign<>(SB), Y7
	TESTQ   CX, CX
	JE      corrpair_done

corrpair_loop:
	VMOVUPD      (SI), X1
	VINSERTF128  $1, (DI), Y1, Y1 // {a, b, c, d}
	VPERMILPD    $5, Y1, Y2       // {b, a, d, c}
	VBROADCASTSD (R8), Y3         // rr
	VBROADCASTSD 8(R8), Y4        // ri
	VXORPD       Y7, Y4, Y4       // {+ri, -ri, +ri, -ri}
	VMULPD       Y3, Y1, Y5
	VMULPD       Y4, Y2, Y6
	VADDPD       Y6, Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $16, SI
	ADDQ         $16, DI
	ADDQ         $16, R8
	DECQ         CX
	JNE          corrpair_loop

corrpair_done:
	VMOVSD       X0, s1r+72(FP)
	VMOVHPD      X0, s1im+80(FP)
	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X1, s2r+88(FP)
	VMOVHPD      X1, s2im+96(FP)
	VZEROUPPER
	RET

// func addPlaneAsm(dst, src []float64)
//
// dst[i] += src[i], four per iteration. len(dst) > 0 and a multiple of 4.
TEXT ·addPlaneAsm(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ DX, DX

addplane_loop:
	VMOVUPD (DI)(DX*8), Y0
	VMOVUPD (SI)(DX*8), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     addplane_loop
	VZEROUPPER
	RET

// func scalePlaneAsm(dst []float64, s float64)
//
// dst[i] *= s, four per iteration. len(dst) > 0 and a multiple of 4.
TEXT ·scalePlaneAsm(SB), NOSPLIT, $0-32
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y1
	XORQ         DX, DX

scaleplane_loop:
	VMOVUPD (DI)(DX*8), Y0
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     scaleplane_loop
	VZEROUPPER
	RET

// func interleaveAsm(x []complex128, re, im []float64)
//
// Pack four complex elements per iteration: permute each plane quad to
// {0,2,1,3} order, then unpack lo/hi to produce the two interleaved pairs.
// Pure data movement. len(x) > 0 and a multiple of 4.
TEXT ·interleaveAsm(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ re_base+24(FP), SI
	MOVQ im_base+48(FP), R8
	XORQ DX, DX

interleave_loop:
	VMOVUPD   (SI)(DX*8), Y0
	VMOVUPD   (R8)(DX*8), Y1
	VPERMPD   $0xD8, Y0, Y0
	VPERMPD   $0xD8, Y1, Y1
	VUNPCKLPD Y1, Y0, Y2 // {r0, i0, r1, i1}
	VUNPCKHPD Y1, Y0, Y3 // {r2, i2, r3, i3}
	VMOVUPD   Y2, (DI)
	VMOVUPD   Y3, 32(DI)
	ADDQ      $64, DI
	ADDQ      $4, DX
	CMPQ      DX, CX
	JLT       interleave_loop
	VZEROUPPER
	RET

// func deinterleaveAsm(re, im []float64, x []complex128)
//
// Unpack four complex elements per iteration: the inverse shuffle of
// interleaveAsm. Pure data movement. len(x) > 0 and a multiple of 4.
TEXT ·deinterleaveAsm(SB), NOSPLIT, $0-72
	MOVQ re_base+0(FP), DI
	MOVQ im_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	XORQ DX, DX

deinterleave_loop:
	VMOVUPD (SI), Y0        // {r0, i0, r1, i1}
	VMOVUPD 32(SI), Y1      // {r2, i2, r3, i3}
	VSHUFPD $0, Y1, Y0, Y2
	VPERMPD $0xD8, Y2, Y2   // {r0, r1, r2, r3}
	VSHUFPD $15, Y1, Y0, Y3
	VPERMPD $0xD8, Y3, Y3   // {i0, i1, i2, i3}
	VMOVUPD Y2, (DI)(DX*8)
	VMOVUPD Y3, (R8)(DX*8)
	ADDQ    $64, SI
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     deinterleave_loop
	VZEROUPPER
	RET

// func fftStageAsm(re, im []float64, wr, wi []float64, half int)
//
// One radix-2 DIT butterfly stage over the planar frame, four butterflies
// per vector. Each lane is one scalar butterfly chain in the twin's order:
// tr = br*wr - bi*wi, ti = br*wi + bi*wr (the compiler's complex128
// lowering, one rounding per operation, no FMA), then a+t / a-t. half is a
// positive multiple of 4 and len(re) a positive multiple of 2*half, so
// every block holds whole quads and quads never straddle blocks.
//
// Register plan: DI re, SI im, R8 wr, R9 wi, BX half, CX len, DX block
// base, AX k, R10/R11 the i/j element indices.
TEXT ·fftStageAsm(SB), NOSPLIT, $0-104
	MOVQ re_base+0(FP), DI
	MOVQ re_len+8(FP), CX
	MOVQ im_base+24(FP), SI
	MOVQ wr_base+48(FP), R8
	MOVQ wi_base+72(FP), R9
	MOVQ half+96(FP), BX
	XORQ DX, DX

fftstage_block:
	XORQ AX, AX

fftstage_quad:
	LEAQ    (DX)(AX*1), R10    // i = base + k
	LEAQ    (R10)(BX*1), R11   // j = i + half
	VMOVUPD (DI)(R11*8), Y0    // br
	VMOVUPD (SI)(R11*8), Y1    // bi
	VMOVUPD (R8)(AX*8), Y2     // wr[k..k+3]
	VMOVUPD (R9)(AX*8), Y3     // wi[k..k+3]
	VMULPD  Y2, Y0, Y4         // br*wr
	VMULPD  Y3, Y1, Y5         // bi*wi
	VSUBPD  Y5, Y4, Y4         // tr = br*wr - bi*wi
	VMULPD  Y3, Y0, Y5         // br*wi
	VMULPD  Y2, Y1, Y6         // bi*wr
	VADDPD  Y6, Y5, Y5         // ti = br*wi + bi*wr
	VMOVUPD (DI)(R10*8), Y6    // ar
	VMOVUPD (SI)(R10*8), Y7    // ai
	VADDPD  Y4, Y6, Y8         // ar + tr
	VADDPD  Y5, Y7, Y9         // ai + ti
	VSUBPD  Y4, Y6, Y10        // ar - tr
	VSUBPD  Y5, Y7, Y11        // ai - ti
	VMOVUPD Y8, (DI)(R10*8)
	VMOVUPD Y9, (SI)(R10*8)
	VMOVUPD Y10, (DI)(R11*8)
	VMOVUPD Y11, (SI)(R11*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     fftstage_quad
	LEAQ    (DX)(BX*2), DX     // base += 2*half
	CMPQ    DX, CX
	JLT     fftstage_block
	VZEROUPPER
	RET

// func fftStageX4Asm(re, im []float64, wr, wi []float64, half int)
//
// The lane-interleaved variant: element e of transform l lives at 4*e+l,
// so one vector holds the same butterfly element of four independent
// transforms and the twiddle broadcasts — every stage vectorizes fully,
// including half 1 and 2. Same per-lane operation order as fftStageAsm.
// half is positive and len(re) a positive multiple of 8*half.
//
// Register plan: DI re, SI im, R8 wr, R9 wi, BX half, CX len (floats),
// DX block base (floats), AX k, R10/R11 the i/j float offsets, R12 4*half.
TEXT ·fftStageX4Asm(SB), NOSPLIT, $0-104
	MOVQ re_base+0(FP), DI
	MOVQ re_len+8(FP), CX
	MOVQ im_base+24(FP), SI
	MOVQ wr_base+48(FP), R8
	MOVQ wi_base+72(FP), R9
	MOVQ half+96(FP), BX
	MOVQ BX, R12
	SHLQ $2, R12               // lane hop between butterfly halves
	XORQ DX, DX

fftx4_block:
	XORQ AX, AX

fftx4_bfly:
	VBROADCASTSD (R8)(AX*8), Y2 // wr[k]
	VBROADCASTSD (R9)(AX*8), Y3 // wi[k]
	LEAQ         (DX)(AX*4), R10  // i4 = base4 + 4k
	LEAQ         (R10)(R12*1), R11 // j4 = i4 + 4*half
	VMOVUPD      (DI)(R11*8), Y0  // br
	VMOVUPD      (SI)(R11*8), Y1  // bi
	VMULPD       Y2, Y0, Y4
	VMULPD       Y3, Y1, Y5
	VSUBPD       Y5, Y4, Y4       // tr
	VMULPD       Y3, Y0, Y5
	VMULPD       Y2, Y1, Y6
	VADDPD       Y6, Y5, Y5       // ti
	VMOVUPD      (DI)(R10*8), Y6  // ar
	VMOVUPD      (SI)(R10*8), Y7  // ai
	VADDPD       Y4, Y6, Y8
	VADDPD       Y5, Y7, Y9
	VSUBPD       Y4, Y6, Y10
	VSUBPD       Y5, Y7, Y11
	VMOVUPD      Y8, (DI)(R10*8)
	VMOVUPD      Y9, (SI)(R10*8)
	VMOVUPD      Y10, (DI)(R11*8)
	VMOVUPD      Y11, (SI)(R11*8)
	INCQ         AX
	CMPQ         AX, BX
	JLT          fftx4_bfly
	LEAQ         (DX)(R12*2), DX  // base4 += 8*half
	CMPQ         DX, CX
	JLT          fftx4_block
	VZEROUPPER
	RET

// func fftPermuteAsm(dst, src []float64, idx []int64)
//
// The bit-reversal gather: dst[i] = src[idx[i]], four elements per
// VGATHERQPD. Pure data movement (the gather copies exact bit patterns).
// len(idx) is a positive multiple of 4; dst and src are disjoint. The
// all-ones gather mask is refreshed each iteration (VGATHERQPD consumes
// it).
TEXT ·fftPermuteAsm(SB), NOSPLIT, $0-72
	MOVQ     dst_base+0(FP), DI
	MOVQ     src_base+24(FP), SI
	MOVQ     idx_base+48(FP), R8
	MOVQ     idx_len+56(FP), CX
	XORQ     DX, DX
	VPCMPEQD Y2, Y2, Y2

fftpermute_loop:
	VMOVDQU    (R8)(DX*8), Y1
	VMOVDQA    Y2, Y3
	VGATHERQPD Y3, (SI)(Y1*8), Y0
	VMOVUPD    Y0, (DI)(DX*8)
	ADDQ       $4, DX
	CMPQ       DX, CX
	JLT        fftpermute_loop
	VZEROUPPER
	RET

// func scaleCplxAsm(re, im []float64, s float64)
//
// The inverse-scale pass: a complex multiply by (s, 0) on planes,
// re' = re*s - im*0, im' = re*0 + im*s, four elements per vector. The zero
// products are kept so ±0/NaN/Inf propagate exactly as in the interleaved
// x[i] *= complex(s, 0). len(re) is a positive multiple of 4.
TEXT ·scaleCplxAsm(SB), NOSPLIT, $0-56
	MOVQ         re_base+0(FP), DI
	MOVQ         re_len+8(FP), CX
	MOVQ         im_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y8
	VXORPD       Y9, Y9, Y9    // +0.0
	XORQ         DX, DX

scalecplx_loop:
	VMOVUPD (DI)(DX*8), Y0     // xr
	VMOVUPD (SI)(DX*8), Y1     // xi
	VMULPD  Y8, Y0, Y2         // xr*s
	VMULPD  Y9, Y1, Y3         // xi*0
	VSUBPD  Y3, Y2, Y2         // re' = xr*s - xi*0
	VMULPD  Y9, Y0, Y4         // xr*0
	VMULPD  Y8, Y1, Y5         // xi*s
	VADDPD  Y5, Y4, Y4         // im' = xr*0 + xi*s
	VMOVUPD Y2, (DI)(DX*8)
	VMOVUPD Y4, (SI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     scalecplx_loop
	VZEROUPPER
	RET

// func mulCplxAsm(ar, ai, br, bi []float64)
//
// Pointwise planar complex product a[i] *= b[i] in the compiler's lowering
// order: re' = xr*yr - xi*yi, im' = xr*yi + xi*yr, four elements per
// vector — the overlap-save spectral product. len(ar) is a positive
// multiple of 4.
TEXT ·mulCplxAsm(SB), NOSPLIT, $0-96
	MOVQ ar_base+0(FP), DI
	MOVQ ar_len+8(FP), CX
	MOVQ ai_base+24(FP), SI
	MOVQ br_base+48(FP), R8
	MOVQ bi_base+72(FP), R9
	XORQ DX, DX

mulcplx_loop:
	VMOVUPD (DI)(DX*8), Y0     // xr
	VMOVUPD (SI)(DX*8), Y1     // xi
	VMOVUPD (R8)(DX*8), Y2     // yr
	VMOVUPD (R9)(DX*8), Y3     // yi
	VMULPD  Y2, Y0, Y4         // xr*yr
	VMULPD  Y3, Y1, Y5         // xi*yi
	VSUBPD  Y5, Y4, Y4         // re'
	VMULPD  Y3, Y0, Y5         // xr*yi
	VMULPD  Y2, Y1, Y6         // xi*yr
	VADDPD  Y6, Y5, Y5         // im'
	VMOVUPD Y4, (DI)(DX*8)
	VMOVUPD Y5, (SI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     mulcplx_loop
	VZEROUPPER
	RET

// sincosK holds sincosAsm's memory operands, each constant in four copies
// (one ymm): 4/π, π/4 in three parts (math.Sincos's PI4A/PI4B/PI4C), 0.5,
// the six Cephes sin and the six cos coefficients (math's _sin/_cos), bit
// for bit.
#define SINCOSK(off, v) \
	DATA sincosK<>+(off)(SB)/8, v \
	DATA sincosK<>+(off+8)(SB)/8, v \
	DATA sincosK<>+(off+16)(SB)/8, v \
	DATA sincosK<>+(off+24)(SB)/8, v

SINCOSK(0, $0x3ff45f306dc9c883)   // 4/π
SINCOSK(32, $0x3fe921fb40000000)  // PI4A
SINCOSK(64, $0x3e64442d00000000)  // PI4B
SINCOSK(96, $0x3ce8469898cc5170)  // PI4C
SINCOSK(128, $0x3fe0000000000000) // 0.5
SINCOSK(160, $0x3de5d8fd1fd19ccd) // _sin[0]
SINCOSK(192, $0xbe5ae5e5a9291f5d) // _sin[1]
SINCOSK(224, $0x3ec71de3567d48a1) // _sin[2]
SINCOSK(256, $0xbf2a01a019bfdf03) // _sin[3]
SINCOSK(288, $0x3f8111111110f7d0) // _sin[4]
SINCOSK(320, $0xbfc5555555555548) // _sin[5]
SINCOSK(352, $0xbda8fa49a0861a9b) // _cos[0]
SINCOSK(384, $0x3e21ee9d7b4e3f05) // _cos[1]
SINCOSK(416, $0xbe927e4f7eac4bc6) // _cos[2]
SINCOSK(448, $0x3efa01a019c844f5) // _cos[3]
SINCOSK(480, $0xbf56c16c16c14f91) // _cos[4]
SINCOSK(512, $0x3fa555555555554b) // _cos[5]
GLOBL sincosK<>(SB), RODATA|NOPTR, $544

DATA sincosLimit<>+0(SB)/8, $0x41c0000000000000 // 2^29
GLOBL sincosLimit<>(SB), RODATA|NOPTR, $8

DATA sincosOne<>+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL sincosOne<>(SB), RODATA|NOPTR, $8

// func sincosAsm(s, c, x []float64) int
//
// Four lanes per iteration, each lane one element of sincosGo: |x| and
// the sign bit by mask, the octant by truncating |x|·4/π to int32
// (VCVTTPD2DQ), the round-up to even in the integer domain, the three-part
// reduction, both polynomials in math.Sincos's order with separate
// multiplies and adds (no FMA), the swap by VBLENDVPD on octant bit 1, and
// the sign flips by XOR with octant bits 2 and 1^2 shifted to the sign
// position. A quad with a lane that fails |x| < 2^29 (NLT_UQ: NaN, ±Inf
// and huge all fail) ends the call before anything of it is written; the
// return value is the number of elements done. len(x) is a multiple of 4.
//
// Register plan: DI s, R8 c, SI x, CX len, DX index, Y15 sign bit, Y14
// 2^29, Y13 1.0, X12 int32 -1, X11 int32 -2; Y0-Y7 per-quad work.
TEXT ·sincosAsm(SB), NOSPLIT, $0-80
	MOVQ         s_base+0(FP), DI
	MOVQ         c_base+24(FP), R8
	MOVQ         x_base+48(FP), SI
	MOVQ         x_len+56(FP), CX
	VBROADCASTSD signBit<>(SB), Y15
	VBROADCASTSD sincosLimit<>(SB), Y14
	VBROADCASTSD sincosOne<>(SB), Y13
	VPCMPEQD     X12, X12, X12
	VPSLLD       $1, X12, X11
	XORQ         DX, DX

sincos_loop:
	CMPQ        DX, CX
	JGE         sincos_done
	VMOVUPD     (SI)(DX*8), Y0
	VANDNPD     Y0, Y15, Y1                 // ax = |x|
	VCMPPD      $0x15, Y14, Y1, Y2          // !(ax < 2^29)
	VMOVMSKPD   Y2, AX
	TESTL       AX, AX
	JNZ         sincos_done
	VANDPD      Y15, Y0, Y0                 // sign bit of x
	VMULPD      sincosK<>+0(SB), Y1, Y2     // ax * 4/π
	VCVTTPD2DQY Y2, X2                      // j = int32(ax * 4/π)
	VPSUBD      X12, X2, X2                 // j + 1
	VPAND       X11, X2, X2                 // &^ 1
	VCVTDQ2PD   X2, Y3                      // y = float64(j)
	VPMOVSXDQ   X2, Y2                      // j as int64 lanes
	VMULPD      sincosK<>+32(SB), Y3, Y4
	VSUBPD      Y4, Y1, Y1                  // ax - y*PI4A
	VMULPD      sincosK<>+64(SB), Y3, Y4
	VSUBPD      Y4, Y1, Y1                  // - y*PI4B
	VMULPD      sincosK<>+96(SB), Y3, Y4
	VSUBPD      Y4, Y1, Y1                  // z = ... - y*PI4C
	VMULPD      Y1, Y1, Y3                  // zz

	// sp = z + (z*zz)*((((((s0*zz)+s1)*zz+s2)*zz+s3)*zz+s4)*zz+s5)
	VMULPD      sincosK<>+160(SB), Y3, Y4
	VADDPD      sincosK<>+192(SB), Y4, Y4
	VMULPD      Y3, Y4, Y4
	VADDPD      sincosK<>+224(SB), Y4, Y4
	VMULPD      Y3, Y4, Y4
	VADDPD      sincosK<>+256(SB), Y4, Y4
	VMULPD      Y3, Y4, Y4
	VADDPD      sincosK<>+288(SB), Y4, Y4
	VMULPD      Y3, Y4, Y4
	VADDPD      sincosK<>+320(SB), Y4, Y4
	VMULPD      Y3, Y1, Y5
	VMULPD      Y4, Y5, Y5
	VADDPD      Y5, Y1, Y5                  // sp

	// cp = (1 - 0.5*zz) + (zz*zz)*((((((c0*zz)+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5)
	VMULPD      sincosK<>+352(SB), Y3, Y4
	VADDPD      sincosK<>+384(SB), Y4, Y4
	VMULPD      Y3, Y4, Y4
	VADDPD      sincosK<>+416(SB), Y4, Y4
	VMULPD      Y3, Y4, Y4
	VADDPD      sincosK<>+448(SB), Y4, Y4
	VMULPD      Y3, Y4, Y4
	VADDPD      sincosK<>+480(SB), Y4, Y4
	VMULPD      Y3, Y4, Y4
	VADDPD      sincosK<>+512(SB), Y4, Y4
	VMULPD      Y3, Y3, Y6
	VMULPD      Y4, Y6, Y6                  // (zz*zz)*P
	VMULPD      sincosK<>+128(SB), Y3, Y7
	VSUBPD      Y7, Y13, Y7                 // 1 - 0.5*zz
	VADDPD      Y6, Y7, Y7                  // cp

	VPSLLQ      $62, Y2, Y6                 // octant bit 1 -> sign position
	VPSLLQ      $61, Y2, Y2                 // octant bit 2 -> sign position
	VBLENDVPD   Y6, Y7, Y5, Y4              // sin: bit 1 ? cp : sp
	VBLENDVPD   Y6, Y5, Y7, Y5              // cos: bit 1 ? sp : cp
	VXORPD      Y2, Y6, Y6
	VANDPD      Y15, Y6, Y6                 // cos flip: bit 1 ^ bit 2
	VXORPD      Y0, Y2, Y2
	VANDPD      Y15, Y2, Y2                 // sin flip: bit 2 ^ sign of x
	VXORPD      Y2, Y4, Y4
	VXORPD      Y6, Y5, Y5
	VMOVUPD     Y4, (DI)(DX*8)
	VMOVUPD     Y5, (R8)(DX*8)
	ADDQ        $4, DX
	JMP         sincos_loop

sincos_done:
	MOVQ        DX, ret+72(FP)
	VZEROUPPER
	RET
