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

// func biquadQuadAsm(re, im [][]float64, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i []float64)
//
// Four lanes, one per vector lane, sample-major; the four delay-state pairs
// live in Y0-Y3 and each lane's own coefficients in Y11-Y15 across the
// whole sample loop. Per sample the update is the scalar sequence:
// yr = b0*xr + s1, s1' = (b1*xr - a1*yr) + s2, s2' = b2*xr - a2*yr (same
// for the imaginary plane). Lane gathers and scatters are scalar 8-byte
// moves (pure data movement).
TEXT ·biquadQuadAsm(SB), NOSPLIT, $0-264
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

	MOVQ    b0_base+48(FP), AX
	VMOVUPD (AX), Y11
	MOVQ    b1_base+72(FP), AX
	VMOVUPD (AX), Y12
	MOVQ    b2_base+96(FP), AX
	VMOVUPD (AX), Y13
	MOVQ    a1_base+120(FP), AX
	VMOVUPD (AX), Y14
	MOVQ    a2_base+144(FP), AX
	VMOVUPD (AX), Y15

	MOVQ    s1r_base+168(FP), AX
	VMOVUPD (AX), Y0
	MOVQ    s1i_base+192(FP), AX
	VMOVUPD (AX), Y1
	MOVQ    s2r_base+216(FP), AX
	VMOVUPD (AX), Y2
	MOVQ    s2i_base+240(FP), AX
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
	MOVQ    s1r_base+168(FP), AX
	VMOVUPD Y0, (AX)
	MOVQ    s1i_base+192(FP), AX
	VMOVUPD Y1, (AX)
	MOVQ    s2r_base+216(FP), AX
	VMOVUPD Y2, (AX)
	MOVQ    s2i_base+240(FP), AX
	VMOVUPD Y3, (AX)
	VZEROUPPER
	RET

// func corrLagsAsm(cr, ci, re, im, rr, ri []float64)
//
// Eight lags per pass: lags l..l+3 ride Y0 (real) and Y2 (imaginary), lags
// l+4..l+7 ride Y1 and Y3. Per tap k: broadcast rr[k] and ri[k], load
// a = re[l+k..l+k+7] and b = im[l+k..l+k+7] (unaligned, two ymm each), then
// per lane exactly the twin's sr += a*rr + b*ri and si += b*rr - a*ri.
// len(cr) is a positive multiple of 8.
TEXT ·corrLagsAsm(SB), NOSPLIT, $0-144
	MOVQ cr_base+0(FP), DI
	MOVQ cr_len+8(FP), CX
	MOVQ ci_base+24(FP), DX
	MOVQ re_base+48(FP), SI
	MOVQ im_base+72(FP), R8
	MOVQ rr_base+96(FP), R9
	MOVQ rr_len+104(FP), R10
	MOVQ ri_base+120(FP), R11
	XORQ AX, AX

corrlags_pass:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(AX*8), R12 // &re[l]
	LEAQ   (R8)(AX*8), R13 // &im[l]
	XORQ   BX, BX
	TESTQ  R10, R10
	JE     corrlags_store

corrlags_tap:
	VBROADCASTSD (R9)(BX*8), Y4  // rr
	VBROADCASTSD (R11)(BX*8), Y5 // ri
	VMOVUPD      (R12)(BX*8), Y6   // a, lags l..l+3
	VMOVUPD      32(R12)(BX*8), Y7 // a, lags l+4..l+7
	VMOVUPD      (R13)(BX*8), Y8   // b, lags l..l+3
	VMOVUPD      32(R13)(BX*8), Y9 // b, lags l+4..l+7
	VMULPD       Y4, Y6, Y10
	VMULPD       Y5, Y8, Y11
	VADDPD       Y11, Y10, Y10 // a*rr + b*ri
	VADDPD       Y10, Y0, Y0
	VMULPD       Y4, Y8, Y12
	VMULPD       Y5, Y6, Y13
	VSUBPD       Y13, Y12, Y12 // b*rr - a*ri
	VADDPD       Y12, Y2, Y2
	VMULPD       Y4, Y7, Y10
	VMULPD       Y5, Y9, Y11
	VADDPD       Y11, Y10, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       Y4, Y9, Y12
	VMULPD       Y5, Y7, Y13
	VSUBPD       Y13, Y12, Y12
	VADDPD       Y12, Y3, Y3
	INCQ         BX
	CMPQ         BX, R10
	JLT          corrlags_tap

corrlags_store:
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, (DX)(AX*8)
	VMOVUPD Y3, 32(DX)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     corrlags_pass
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
// lowering, one rounding per operation, no FMA), then a+t / a-t. Either
// half is a positive multiple of 4 and len(re) a positive multiple of
// 2*half, so every block holds whole quads and quads never straddle
// blocks; or half is 1 or 2 and len(re) a positive multiple of 8, and each
// iteration splits eight elements into the a and b halves of four
// butterflies (unpcklpd/unpckhpd for half 1, perm2f128 for half 2), runs
// the same lane arithmetic and merges the results back with the inverse
// shuffle. Shuffles move bits exactly, so the lanes stay the twin's chains.
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
	CMPQ BX, $1
	JEQ  fftstage_h1
	CMPQ BX, $2
	JEQ  fftstage_h2

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

// FFTBFLY8 runs the four butterflies whose a halves are in Y2 (re) / Y6
// (im) and b halves in Y3 / Y7 against the twiddles in Y12 (wr) / Y13
// (wi), leaving a+t in Y0 / Y4 and a-t in Y1 / Y5.
#define FFTBFLY8 \
	VMULPD Y12, Y3, Y8  \ // br*wr
	VMULPD Y13, Y7, Y9  \ // bi*wi
	VSUBPD Y9, Y8, Y8   \ // tr = br*wr - bi*wi
	VMULPD Y13, Y3, Y9  \ // br*wi
	VMULPD Y12, Y7, Y10 \ // bi*wr
	VADDPD Y10, Y9, Y9  \ // ti = br*wi + bi*wr
	VADDPD Y8, Y2, Y0   \ // ar + tr
	VSUBPD Y8, Y2, Y1   \ // ar - tr
	VADDPD Y9, Y6, Y4   \ // ai + ti
	VSUBPD Y9, Y6, Y5      // ai - ti

// half 1: elements (2k, 2k+1) pair up with the one twiddle (wr[0], wi[0]).
fftstage_h1:
	VBROADCASTSD (R8), Y12
	VBROADCASTSD (R9), Y13

fftstage_h1_loop:
	VMOVUPD   (DI)(DX*8), Y0     // [a0 b0 a1 b1]
	VMOVUPD   32(DI)(DX*8), Y1   // [a2 b2 a3 b3]
	VUNPCKLPD Y1, Y0, Y2         // ar = [a0 a2 a1 a3]
	VUNPCKHPD Y1, Y0, Y3         // br = [b0 b2 b1 b3]
	VMOVUPD   (SI)(DX*8), Y4
	VMOVUPD   32(SI)(DX*8), Y5
	VUNPCKLPD Y5, Y4, Y6         // ai
	VUNPCKHPD Y5, Y4, Y7         // bi
	FFTBFLY8
	VUNPCKLPD Y1, Y0, Y2         // [a0' b0' a1' b1']
	VUNPCKHPD Y1, Y0, Y3         // [a2' b2' a3' b3']
	VUNPCKLPD Y5, Y4, Y6
	VUNPCKHPD Y5, Y4, Y7
	VMOVUPD   Y2, (DI)(DX*8)
	VMOVUPD   Y3, 32(DI)(DX*8)
	VMOVUPD   Y6, (SI)(DX*8)
	VMOVUPD   Y7, 32(SI)(DX*8)
	ADDQ      $8, DX
	CMPQ      DX, CX
	JLT       fftstage_h1_loop
	VZEROUPPER
	RET

// half 2: blocks [a0 a1 b0 b1], butterfly k pairing ak with bk under
// twiddle k; two blocks per iteration.
fftstage_h2:
	VBROADCASTF128 (R8), Y12     // [wr0 wr1 wr0 wr1]
	VBROADCASTF128 (R9), Y13

fftstage_h2_loop:
	VMOVUPD    (DI)(DX*8), Y0    // [a0 a1 b0 b1]
	VMOVUPD    32(DI)(DX*8), Y1  // [c0 c1 d0 d1]
	VPERM2F128 $0x20, Y1, Y0, Y2 // ar = [a0 a1 c0 c1]
	VPERM2F128 $0x31, Y1, Y0, Y3 // br = [b0 b1 d0 d1]
	VMOVUPD    (SI)(DX*8), Y4
	VMOVUPD    32(SI)(DX*8), Y5
	VPERM2F128 $0x20, Y5, Y4, Y6 // ai
	VPERM2F128 $0x31, Y5, Y4, Y7 // bi
	FFTBFLY8
	VPERM2F128 $0x20, Y1, Y0, Y2 // [a0' a1' b0' b1']
	VPERM2F128 $0x31, Y1, Y0, Y3 // [c0' c1' d0' d1']
	VPERM2F128 $0x20, Y5, Y4, Y6
	VPERM2F128 $0x31, Y5, Y4, Y7
	VMOVUPD    Y2, (DI)(DX*8)
	VMOVUPD    Y3, 32(DI)(DX*8)
	VMOVUPD    Y6, (SI)(DX*8)
	VMOVUPD    Y7, 32(SI)(DX*8)
	ADDQ       $8, DX
	CMPQ       DX, CX
	JLT        fftstage_h2_loop
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

// CTSolver and CTSection field offsets (TestCTSolverLayout pins them to the
// Go structs).
#define CT_G 0
#define CT_A3 8
#define CT_CLIP 16
#define CT_NCLIP 24
#define CT_NSIG 32
#define CT_HK 40
#define CT_HH2 48
#define CT_HDEN 56
#define CT_HC 64
#define CT_HD 72
#define CT_HX 80
#define CT_HU 88
#define CT_IQMUL 96
#define CT_IQADD 112
#define CT_GAIN 128
#define CT_SEC 144
#define CT_NSEC 152
#define CT_FK 168
#define CT_FH2 184
#define CT_FDEN 200
#define CT_FC 216
#define CT_FD 232
#define CT_FX 248
#define CT_FU 264
#define CT_OUTG 280
#define CT_DECIM 296
#define CT_PHASE 304
#define CT_HPF 312
#define CT_LPF 313
#define CT_FO 314

#define SEC_H2 0
#define SEC_NA0 16
#define SEC_K22 32
#define SEC_M11 48
#define SEC_M12 64
#define SEC_M21 80
#define SEC_M22 96
#define SEC_C0 112
#define SEC_C1 128
#define SEC_D 144
#define SEC_X1 160
#define SEC_X2 176
#define SEC_U 192
#define SEC_SIZE 208

DATA ctSqrt2<>+0(SB)/8, $0x3ff6a09e667f3bcd // math.Sqrt2
GLOBL ctSqrt2<>(SB), RODATA|NOPTR, $8

// CTBQREG steps the biquad section at OFF(BX) whose state lives in
// registers (S1 = x1, S2 = x2, SU = previous input) on the rail pair in X0,
// leaving the section's output in X0; X1 and X2 are scratch. The update is
// CTSection's in ctSolveGo's order:
// r1 = x1 + h2*x2, r2 = (na0*x1 + k22*x2) + h2*(up+u),
// x1 = m11*r1 + m12*r2, x2 = m21*r1 + m22*r2, y = (c0*x1 + c1*x2) + d*u.
#define CTBQREG(OFF, S1, S2, SU) \
	VADDPD  X0, SU, X1                \ // up + u
	VMULPD  (OFF+SEC_H2)(BX), X1, X1  \ // h2*(up+u)
	VMULPD  (OFF+SEC_NA0)(BX), S1, X2 \ // na0*x1
	VMULPD  (OFF+SEC_K22)(BX), S2, SU \ // k22*x2 (up is dead)
	VADDPD  SU, X2, X2                \
	VADDPD  X1, X2, X2                \ // r2
	VMOVAPD X0, SU                    \ // up = u
	VMULPD  (OFF+SEC_H2)(BX), S2, X1  \ // h2*x2
	VADDPD  X1, S1, X1                \ // r1
	VMULPD  (OFF+SEC_M11)(BX), X1, S1 \ // m11*r1
	VMULPD  (OFF+SEC_M12)(BX), X2, S2 \ // m12*r2
	VADDPD  S2, S1, S1                \ // x1
	VMULPD  (OFF+SEC_M21)(BX), X1, S2 \ // m21*r1
	VMULPD  (OFF+SEC_M22)(BX), X2, X1 \ // m22*r2
	VADDPD  X1, S2, S2                \ // x2
	VMULPD  (OFF+SEC_C0)(BX), S1, X1  \ // c0*x1
	VMULPD  (OFF+SEC_C1)(BX), S2, X2  \ // c1*x2
	VADDPD  X2, X1, X1                \
	VMULPD  (OFF+SEC_D)(BX), X0, X2   \ // d*u
	VADDPD  X2, X1, X0                  // y

// CTBQMEM is CTBQREG for the section at R13 whose state stays in memory
// (sections past the third); with only X0-X2 free, the section's own x1
// slot holds m11*r1 while m12*r2 is formed.
#define CTBQMEM \
	VADDPD  SEC_U(R13), X0, X1   \ // u + up
	VMOVUPD X0, SEC_U(R13)       \ // up = u
	VMULPD  SEC_H2(R13), X1, X1  \ // h2*(up+u)
	VMOVUPD SEC_X1(R13), X0      \
	VMULPD  SEC_NA0(R13), X0, X0 \ // na0*x1
	VMOVUPD SEC_X2(R13), X2      \
	VMULPD  SEC_K22(R13), X2, X2 \ // k22*x2
	VADDPD  X2, X0, X0           \
	VADDPD  X1, X0, X0           \ // r2
	VMOVUPD SEC_X2(R13), X1      \
	VMULPD  SEC_H2(R13), X1, X1  \ // h2*x2
	VADDPD  SEC_X1(R13), X1, X1  \ // r1
	VMULPD  SEC_M11(R13), X1, X2 \ // m11*r1
	VMOVUPD X2, SEC_X1(R13)      \
	VMULPD  SEC_M12(R13), X0, X2 \ // m12*r2
	VADDPD  SEC_X1(R13), X2, X2  \ // x1
	VMOVUPD X2, SEC_X1(R13)      \
	VMULPD  SEC_M21(R13), X1, X1 \ // m21*r1
	VMULPD  SEC_M22(R13), X0, X0 \ // m22*r2
	VADDPD  X0, X1, X1           \ // x2
	VMOVUPD X1, SEC_X2(R13)      \
	VMULPD  SEC_C1(R13), X1, X1  \ // c1*x2
	VMULPD  SEC_C0(R13), X2, X0  \ // c0*x1
	VADDPD  X1, X0, X0           \
	VMOVUPD SEC_U(R13), X1       \
	VMULPD  SEC_D(R13), X1, X1   \ // d*u
	VADDPD  X1, X0, X0             // y

// func ctSolveAsm(out []complex128, v, c1, c2, msk, noise []float64, p *CTSolver) int
//
// The circuit recurrence over one drive block, one sample per iteration.
// Up to the quadrature conversion the chain is scalar (the real RF and IF
// waveform); from there the I and Q rails are the two lanes of one xmm
// vector, each lane one rail of ctSolveGo in its order, no FMA. Products
// with a shared operand and sums of two terms may take their operands in
// the other order (exact: IEEE addition and multiplication commute). The
// LNA clip is MINSD with the clip level first and MAXSD with its negation
// first: each returns its second operand unless the first is strictly
// smaller (larger), which is the twin's y > clip / y < -clip branch pair,
// a NaN y passing through both. The decimated outputs are stored as
// complex128 pairs straight from the rail vector.
//
// The state lives in registers for the whole block: X3/X4 the DC block's
// x/u, X5-X13 the first three sections' x1/x2/u, X14/X15 the real-pole
// section's x/u; sections past the third run CTBQMEM on their memory
// state. X0 carries the sample, X1/X2 are scratch.
//
// Register plan: DI p, SI v, CX n, DX k, R8 c1, R9 c2, R10 msk, R11 noise
// (0 when empty), R12 out write pointer, R14 phase, R15 decim, BX sections,
// AX section count (0 without the filter), R13 memory-section pointer;
// secend holds the end of the sections.
TEXT ·ctSolveAsm(SB), NOSPLIT, $8-160
	MOVQ p+144(FP), DI
	MOVQ out_base+0(FP), R12
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), CX
	MOVQ c1_base+48(FP), R8
	MOVQ c2_base+72(FP), R9
	MOVQ msk_base+96(FP), R10
	MOVQ noise_base+120(FP), R11
	MOVQ noise_len+128(FP), AX
	TESTQ AX, AX
	JNE  ctsolve_noise
	XORQ R11, R11

ctsolve_noise:
	// Pre-pass: the memoryless LNA and first conversion, four samples per
	// ymm, v[k] = clip(g*x + a3*x*x*x) * (2*c1[k]) with x = v[k] (+ the
	// scaled draw), overwriting v.
	VBROADCASTSD CT_G(DI), Y5
	VBROADCASTSD CT_A3(DI), Y6
	VBROADCASTSD CT_CLIP(DI), Y7
	VBROADCASTSD CT_NCLIP(DI), Y8
	VBROADCASTSD CT_NSIG(DI), Y9
	MOVQ         CX, R13
	ANDQ         $~3, R13
	XORQ         DX, DX

ctsolve_pre4:
	CMPQ    DX, R13
	JGE     ctsolve_pre1
	VMOVUPD (SI)(DX*8), Y0
	TESTQ   R11, R11
	JEQ     ctsolve_pre4lna
	VMULPD  (R11)(DX*8), Y9, Y1 // d*nsig
	VADDPD  Y1, Y0, Y0          // x + d*nsig

ctsolve_pre4lna:
	VMULPD  Y5, Y0, Y1 // g*x
	VMULPD  Y6, Y0, Y2 // a3*x
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y2, Y2 // a3*x*x*x
	VADDPD  Y2, Y1, Y1 // y
	VMINPD  Y1, Y7, Y1 // clip < y ? clip : y
	VMAXPD  Y1, Y8, Y1 // -clip > y ? -clip : y
	VMOVUPD (R8)(DX*8), Y2
	VADDPD  Y2, Y2, Y2 // 2*c1, exactly c1 + c1
	VMULPD  Y2, Y1, Y1
	VMOVUPD Y1, (SI)(DX*8)
	ADDQ    $4, DX
	JMP     ctsolve_pre4

ctsolve_pre1:
	CMPQ   DX, CX
	JGE    ctsolve_state
	VMOVSD (SI)(DX*8), X0
	TESTQ  R11, R11
	JEQ    ctsolve_pre1lna
	VMULSD (R11)(DX*8), X9, X1
	VADDSD X1, X0, X0

ctsolve_pre1lna:
	VMULSD  X5, X0, X1
	VMULSD  X6, X0, X2
	VMULSD  X0, X2, X2
	VMULSD  X0, X2, X2
	VADDSD  X2, X1, X1
	VMINSD  X1, X7, X1
	VMAXSD  X1, X8, X1
	VMOVSD  (R8)(DX*8), X2
	VADDSD  X2, X2, X2
	VMULSD  X2, X1, X1
	VMOVSD  X1, (SI)(DX*8)
	INCQ    DX
	JMP     ctsolve_pre1

ctsolve_state:
	VZEROUPPER
	MOVQ CT_PHASE(DI), R14
	MOVQ CT_DECIM(DI), R15
	MOVQ CT_SEC(DI), BX
	MOVQ CT_NSEC(DI), AX
	CMPB CT_LPF(DI), $0
	JNE  ctsolve_lpf
	XORQ AX, AX

ctsolve_lpf:
	IMUL3Q  $SEC_SIZE, AX, DX
	ADDQ    BX, DX
	MOVQ    DX, secend-8(SP)
	VMOVSD  CT_HX(DI), X3
	VMOVSD  CT_HU(DI), X4
	VMOVUPD CT_FX(DI), X14
	VMOVUPD CT_FU(DI), X15
	CMPQ    AX, $1
	JLT     ctsolve_loaded
	VMOVUPD (0*SEC_SIZE+SEC_X1)(BX), X5
	VMOVUPD (0*SEC_SIZE+SEC_X2)(BX), X6
	VMOVUPD (0*SEC_SIZE+SEC_U)(BX), X7
	CMPQ    AX, $2
	JLT     ctsolve_loaded
	VMOVUPD (1*SEC_SIZE+SEC_X1)(BX), X8
	VMOVUPD (1*SEC_SIZE+SEC_X2)(BX), X9
	VMOVUPD (1*SEC_SIZE+SEC_U)(BX), X10
	CMPQ    AX, $3
	JLT     ctsolve_loaded
	VMOVUPD (2*SEC_SIZE+SEC_X1)(BX), X11
	VMOVUPD (2*SEC_SIZE+SEC_X2)(BX), X12
	VMOVUPD (2*SEC_SIZE+SEC_U)(BX), X13

ctsolve_loaded:
	XORQ  DX, DX
	TESTQ CX, CX
	JEQ   ctsolve_done

ctsolve_loop:
	// The first conversion's output, from the pre-pass.
	VMOVSD (SI)(DX*8), X0

	// DC block.
	CMPB    CT_HPF(DI), $0
	JEQ     ctsolve_iq
	VADDSD  X0, X4, X1         // hu + v
	VMULSD  CT_HH2(DI), X1, X1 // h2*(hu+v)
	VMULSD  CT_HK(DI), X3, X2  // k*hx
	VADDSD  X1, X2, X2
	VDIVSD  CT_HDEN(DI), X2, X3 // hx
	VMOVAPD X0, X4             // hu = v
	VMULSD  CT_HC(DI), X3, X1  // c*hx
	VMULSD  CT_HD(DI), X0, X2  // d*v
	VADDSD  X2, X1, X0

ctsolve_iq:
	// Quadrature conversion into the rail pair [i, q].
	VMULSD   ctSqrt2<>(SB), X0, X0
	VMOVDDUP X0, X0
	VMOVSD   (R9)(DX*8), X1
	VMOVHPD  (R10)(DX*8), X1, X1 // [c2, msk]
	VMULPD   X1, X0, X0
	VMULPD   CT_IQMUL(DI), X0, X0
	VADDPD   CT_IQADD(DI), X0, X0

	// Channel-select Chebyshev.
	CMPB   CT_LPF(DI), $0
	JEQ    ctsolve_out
	VMULPD CT_GAIN(DI), X0, X0
	CMPQ   AX, $1
	JLT    ctsolve_fo
	CTBQREG(0, X5, X6, X7)
	CMPQ   AX, $2
	JLT    ctsolve_fo
	CTBQREG(SEC_SIZE, X8, X9, X10)
	CMPQ   AX, $3
	JLT    ctsolve_fo
	CTBQREG(2*SEC_SIZE, X11, X12, X13)
	LEAQ   (3*SEC_SIZE)(BX), R13

ctsolve_mem:
	CMPQ R13, secend-8(SP)
	JGE  ctsolve_fo
	CTBQMEM
	ADDQ $SEC_SIZE, R13
	JMP  ctsolve_mem

ctsolve_fo:
	CMPB    CT_FO(DI), $0
	JEQ     ctsolve_out
	VADDPD  X0, X15, X1        // fu + u
	VMULPD  CT_FH2(DI), X1, X1 // h2*(fu+u)
	VMULPD  CT_FK(DI), X14, X2 // k*fx
	VADDPD  X1, X2, X2
	VDIVPD  CT_FDEN(DI), X2, X14 // fx
	VMOVAPD X0, X15            // fu = u
	VMULPD  CT_FC(DI), X14, X1 // c*fx
	VMULPD  CT_FD(DI), X0, X2  // d*u
	VADDPD  X2, X1, X0

ctsolve_out:
	// Output gain and decimation.
	TESTQ   R14, R14
	JNE     ctsolve_next
	VMULPD  CT_OUTG(DI), X0, X1
	VMOVUPD X1, (R12)
	ADDQ    $16, R12

ctsolve_next:
	INCQ R14
	CMPQ R14, R15
	JNE  ctsolve_step
	XORQ R14, R14

ctsolve_step:
	INCQ DX
	CMPQ DX, CX
	JLT  ctsolve_loop

ctsolve_done:
	VMOVSD  X3, CT_HX(DI)
	VMOVSD  X4, CT_HU(DI)
	VMOVUPD X14, CT_FX(DI)
	VMOVUPD X15, CT_FU(DI)
	MOVQ    R14, CT_PHASE(DI)
	CMPQ    AX, $1
	JLT     ctsolve_stored
	VMOVUPD X5, (0*SEC_SIZE+SEC_X1)(BX)
	VMOVUPD X6, (0*SEC_SIZE+SEC_X2)(BX)
	VMOVUPD X7, (0*SEC_SIZE+SEC_U)(BX)
	CMPQ    AX, $2
	JLT     ctsolve_stored
	VMOVUPD X8, (1*SEC_SIZE+SEC_X1)(BX)
	VMOVUPD X9, (1*SEC_SIZE+SEC_X2)(BX)
	VMOVUPD X10, (1*SEC_SIZE+SEC_U)(BX)
	CMPQ    AX, $3
	JLT     ctsolve_stored
	VMOVUPD X11, (2*SEC_SIZE+SEC_X1)(BX)
	VMOVUPD X12, (2*SEC_SIZE+SEC_X2)(BX)
	VMOVUPD X13, (2*SEC_SIZE+SEC_U)(BX)

ctsolve_stored:
	SUBQ out_base+0(FP), R12
	SHRQ $4, R12
	MOVQ R12, ret+152(FP)
	RET

// normQuadsAsm's constants: the VPERMD index that gathers the four j = x>>31
// dwords in draw order (the register slots of a quad ascend, its draws
// descend), the one that splits four strips into their kn and wn halves,
// the strip mask, and the draw and register-slot numbers of a quad's lanes
// for the partial commit's masks.
DATA normPerm<>+0(SB)/4, $6
DATA normPerm<>+4(SB)/4, $4
DATA normPerm<>+8(SB)/4, $2
DATA normPerm<>+12(SB)/4, $0
DATA normPerm<>+16(SB)/4, $0
DATA normPerm<>+20(SB)/4, $0
DATA normPerm<>+24(SB)/4, $0
DATA normPerm<>+28(SB)/4, $0
GLOBL normPerm<>(SB), RODATA|NOPTR, $32

DATA normSplit<>+0(SB)/4, $0
DATA normSplit<>+4(SB)/4, $2
DATA normSplit<>+8(SB)/4, $4
DATA normSplit<>+12(SB)/4, $6
DATA normSplit<>+16(SB)/4, $1
DATA normSplit<>+20(SB)/4, $3
DATA normSplit<>+24(SB)/4, $5
DATA normSplit<>+28(SB)/4, $7
GLOBL normSplit<>(SB), RODATA|NOPTR, $32

DATA normStrip<>+0(SB)/4, $0x7f
GLOBL normStrip<>(SB), RODATA|NOPTR, $4

DATA normDraw<>+0(SB)/8, $0
DATA normDraw<>+8(SB)/8, $1
DATA normDraw<>+16(SB)/8, $2
DATA normDraw<>+24(SB)/8, $3
GLOBL normDraw<>(SB), RODATA|NOPTR, $32

DATA normSlot<>+0(SB)/8, $3
DATA normSlot<>+8(SB)/8, $2
DATA normSlot<>+16(SB)/8, $1
DATA normSlot<>+24(SB)/8, $0
GLOBL normSlot<>(SB), RODATA|NOPTR, $32

// func normQuadsAsm(lo, hi []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable, mul, add float64, pairs bool) int
//
// Four draws per iteration, each lane one draw of normQuadsGo: the tap and
// feed slots of a quad are four ascending int64s each, summed by one
// VPADDQ; j = x>>31 is taken as the low dword of each lane, permuted into
// draw order; the strip k = j&0x7F indexes an 8-byte gather of (kn, wn);
// |j| by VPABSD (MinInt32 stays 0x80000000, which is 2^31 unsigned, as
// uint32(-j)) and the unsigned test |j| >= kn as max(|j|, kn) == |j|. The
// draw is float64(j)*float64(wn), then v*mul, then add + that, no FMA. A
// quad whose strip tests all pass is committed whole: the sums to the feed
// slots, the draws to lo (or, with pairs, d0 d2 to lo and d1 d3 to hi).
// Otherwise only the m draws before the first rejected one are committed,
// by masked stores, and the call returns there.
//
// Register plan: DI lo, R8 hi, SI reg, BX tap, CX feed, R9 tab, DX draws
// done, R10 draw limit, R11 pairs; Y15 mul, Y14 add, Y13 normPerm, X12
// strip mask, Y11 normSplit; Y0-Y10 per-quad work.
TEXT ·normQuadsAsm(SB), NOSPLIT, $0-112
	MOVQ         lo_base+0(FP), DI
	MOVQ         lo_len+8(FP), R10
	MOVQ         hi_base+24(FP), R8
	MOVQ         hi_len+32(FP), AX
	MOVQ         reg+48(FP), SI
	MOVQ         tap+56(FP), BX
	MOVQ         feed+64(FP), CX
	MOVQ         tab+72(FP), R9
	VBROADCASTSD mul+80(FP), Y15
	VBROADCASTSD add+88(FP), Y14
	MOVBQZX      pairs+96(FP), R11
	TESTQ        R11, R11
	JZ           norm_limit
	CMPQ         AX, R10
	CMOVQLT      AX, R10
	SHLQ         $1, R10                   // pairs: 2*min(len(lo), len(hi))

norm_limit:
	CMPQ         BX, R10
	CMOVQLT      BX, R10
	CMPQ         CX, R10
	CMOVQLT      CX, R10
	ANDQ         $-4, R10                  // whole quads above index 0
	VMOVDQU      normPerm<>(SB), Y13
	VPBROADCASTD normStrip<>(SB), X12
	VMOVDQU      normSplit<>(SB), Y11
	XORQ         DX, DX

norm_loop:
	CMPQ         DX, R10
	JGE          norm_done
	VMOVDQU      -32(SI)(BX*8), Y0
	VPADDQ       -32(SI)(CX*8), Y0, Y0     // x, slot-ascending
	VPSRLQ       $31, Y0, Y1
	VPERMD       Y1, Y13, Y1               // X1: j in draw order
	VPAND        X12, X1, X2               // k = j & 0x7f
	VPCMPEQD     Y4, Y4, Y4
	VPGATHERDQ   Y4, (R9)(X2*8), Y5        // strips: kn | wn<<32
	VPERMD       Y5, Y11, Y5               // X5: kn; high half: wn
	VPABSD       X1, X3                    // |j|
	VPMAXUD      X5, X3, X6
	VPCMPEQD     X6, X3, X6                // |j| >= kn: rejected
	VEXTRACTI128 $1, Y5, X7
	VCVTPS2PD    X7, Y7                    // float64(wn)
	VCVTDQ2PD    X1, Y8                    // float64(j)
	VMULPD       Y7, Y8, Y8                // v
	VMULPD       Y15, Y8, Y8               // v*mul
	VADDPD       Y14, Y8, Y8               // add + v*mul (a NaN product wins, as in Go)
	VPTEST       X6, X6
	JNZ          norm_reject
	VMOVDQU      Y0, -32(SI)(CX*8)
	SUBQ         $4, BX
	SUBQ         $4, CX
	TESTQ        R11, R11
	JNZ          norm_pairs
	VMOVUPD      Y8, (DI)(DX*8)
	ADDQ         $4, DX
	JMP          norm_loop

norm_pairs:
	MOVQ         DX, AX
	SHRQ         $1, AX
	VPERMPD      $0xd8, Y8, Y8             // d0 d2 | d1 d3
	VMOVUPD      X8, (DI)(AX*8)
	VEXTRACTF128 $1, Y8, (R8)(AX*8)
	ADDQ         $4, DX
	JMP          norm_loop

norm_reject:
	VMOVMSKPS    X6, AX
	BSFL         AX, AX                    // m: draws before the first rejection
	TESTQ        AX, AX
	JZ           norm_done
	VMOVQ        AX, X9
	VPBROADCASTQ X9, Y9
	VPCMPGTQ     normSlot<>(SB), Y9, Y3    // slots of draws < m
	VPCMPGTQ     normDraw<>(SB), Y9, Y10   // draws < m
	VPMASKMOVQ   Y0, Y3, -32(SI)(CX*8)
	TESTQ        R11, R11
	JNZ          norm_reject_pairs
	VMASKMOVPD   Y8, Y10, (DI)(DX*8)
	ADDQ         AX, DX
	JMP          norm_done

norm_reject_pairs:
	MOVQ         DX, R12
	SHRQ         $1, R12
	VPERMPD      $0xd8, Y8, Y8
	VPERMPD      $0xd8, Y10, Y10
	VMASKMOVPD   X8, X10, (DI)(R12*8)
	VEXTRACTF128 $1, Y8, X8
	VEXTRACTF128 $1, Y10, X10
	VMASKMOVPD   X8, X10, (R8)(R12*8)
	ADDQ         AX, DX

norm_done:
	MOVQ         DX, ret+104(FP)
	VZEROUPPER
	RET

DATA demapInf<>+0(SB)/8, $0x7FF0000000000000
GLOBL demapInf<>(SB), RODATA|NOPTR, $8

// func demapSoftAsm(planes []float64, ys []complex128, w []float64, axI, axQ []float64, stride int) bool
//
// Four symbols per quad, one per lane. Each quad is screened first (NaN:
// unordered with itself, VCMPPD $3; ±0: EQ_OQ against zero, $0) and the
// kernel returns false at the first quad holding one. An axis pass for bit
// mask M broadcasts each coordinate x_k, forms (y - x_k)^2 and folds it
// into d1 (k&M set) or d0 with VMINPD — on these NaN-free squares the
// exact minimum, as the twin's min. The Q bit-0 pass runs first: its
// minimum is the I bits' offset bMin. The I passes follow (the bit-0 pass
// also yields aMin), then the Q bits with aMin. Each metric is the twin's
// w * ((d1 + other) - (d0 + other)), stored at plane stride.
// len(ys) is a positive multiple of 4.
//
// Register plan: SI ys (advancing), DX w, DI planes, AX symbol index, CX
// len(ys), R8/R9 axI and its length, R10/R11 axQ and its length, R12 the
// plane stride in bytes, R13 the output pointer, R14 the bit mask, BX the
// coordinate index. Y2 yr, Y3 yi, Y4 w, Y6/Y7 the I pass's d0/d1, Y8/Y9 the
// Q pass's, Y10 aMin, Y11 bMin, Y14 +Inf, Y15 zero.
TEXT ·demapSoftAsm(SB), NOSPLIT, $0-129
	MOVQ         planes_base+0(FP), DI
	MOVQ         ys_base+24(FP), SI
	MOVQ         ys_len+32(FP), CX
	MOVQ         w_base+48(FP), DX
	MOVQ         axI_base+72(FP), R8
	MOVQ         axI_len+80(FP), R9
	MOVQ         axQ_base+96(FP), R10
	MOVQ         axQ_len+104(FP), R11
	MOVQ         stride+120(FP), R12
	SHLQ         $3, R12
	VBROADCASTSD demapInf<>(SB), Y14
	VXORPD       Y15, Y15, Y15
	XORQ         AX, AX

demap_quad:
	VMOVUPD   (SI), Y0
	VMOVUPD   32(SI), Y1
	VUNPCKLPD Y1, Y0, Y2
	VPERMPD   $0xD8, Y2, Y2 // yr of the four symbols
	VUNPCKHPD Y1, Y0, Y3
	VPERMPD   $0xD8, Y3, Y3 // yi
	VMOVUPD   (DX)(AX*8), Y4 // w
	VCMPPD    $3, Y2, Y2, Y5
	VCMPPD    $3, Y3, Y3, Y0
	VORPD     Y0, Y5, Y5
	VCMPPD    $3, Y4, Y4, Y0
	VORPD     Y0, Y5, Y5
	VCMPPD    $0, Y15, Y2, Y0
	VORPD     Y0, Y5, Y5
	VCMPPD    $0, Y15, Y3, Y0
	VORPD     Y0, Y5, Y5
	VCMPPD    $0, Y15, Y4, Y0
	VORPD     Y0, Y5, Y5
	VMOVMSKPD Y5, BX
	TESTQ     BX, BX
	JNE       demap_special
	LEAQ      (DI)(AX*8), R13

	// Q bit-0 pass: d0Q/d1Q and bMin.
	VMOVAPD Y14, Y8
	VMOVAPD Y14, Y9
	XORQ    BX, BX

demap_q0:
	VBROADCASTSD (R10)(BX*8), Y0
	VSUBPD       Y0, Y3, Y0
	VMULPD       Y0, Y0, Y0
	TESTQ        $1, BX
	JNE          demap_q0_one
	VMINPD       Y0, Y8, Y8
	JMP          demap_q0_next

demap_q0_one:
	VMINPD Y0, Y9, Y9

demap_q0_next:
	INCQ   BX
	CMPQ   BX, R11
	JLT    demap_q0
	VMINPD Y9, Y8, Y11

	// I bits, mask 1, 2, 4, ... below len(axI); the mask-1 pass yields aMin.
	MOVQ $1, R14

demap_ibit:
	VMOVAPD Y14, Y6
	VMOVAPD Y14, Y7
	XORQ    BX, BX

demap_ipass:
	VBROADCASTSD (R8)(BX*8), Y0
	VSUBPD       Y0, Y2, Y0
	VMULPD       Y0, Y0, Y0
	TESTQ        R14, BX
	JNE          demap_ipass_one
	VMINPD       Y0, Y6, Y6
	JMP          demap_ipass_next

demap_ipass_one:
	VMINPD Y0, Y7, Y7

demap_ipass_next:
	INCQ BX
	CMPQ BX, R9
	JLT  demap_ipass
	CMPQ R14, $1
	JNE  demap_iout
	VMINPD Y7, Y6, Y10

demap_iout:
	VADDPD  Y11, Y6, Y0
	VADDPD  Y11, Y7, Y1
	VSUBPD  Y0, Y1, Y1
	VMULPD  Y1, Y4, Y1
	VMOVUPD Y1, (R13)
	ADDQ    R12, R13
	SHLQ    $1, R14
	CMPQ    R14, R9
	JLT     demap_ibit

	// Q bits: bit 0 from the first pass, then mask 2, 4, ... below len(axQ).
	CMPQ R11, $2
	JLT  demap_next
	MOVQ $1, R14
	JMP  demap_qout

demap_qbit:
	VMOVAPD Y14, Y8
	VMOVAPD Y14, Y9
	XORQ    BX, BX

demap_qpass:
	VBROADCASTSD (R10)(BX*8), Y0
	VSUBPD       Y0, Y3, Y0
	VMULPD       Y0, Y0, Y0
	TESTQ        R14, BX
	JNE          demap_qpass_one
	VMINPD       Y0, Y8, Y8
	JMP          demap_qpass_next

demap_qpass_one:
	VMINPD Y0, Y9, Y9

demap_qpass_next:
	INCQ BX
	CMPQ BX, R11
	JLT  demap_qpass

demap_qout:
	VADDPD  Y10, Y8, Y0
	VADDPD  Y10, Y9, Y1
	VSUBPD  Y0, Y1, Y1
	VMULPD  Y1, Y4, Y1
	VMOVUPD Y1, (R13)
	ADDQ    R12, R13
	SHLQ    $1, R14
	CMPQ    R14, R11
	JLT     demap_qbit

demap_next:
	ADDQ $64, SI
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  demap_quad
	MOVB $1, ret+128(FP)
	VZEROUPPER
	RET

demap_special:
	MOVB $0, ret+128(FP)
	VZEROUPPER
	RET

DATA rotLo<>+0(SB)/8, $0x3feffffcdab191de
DATA rotLo<>+8(SB)/8, $0x3feffffcdab191de
DATA rotLo<>+16(SB)/8, $0x3feffffcdab191de
DATA rotLo<>+24(SB)/8, $0x3feffffcdab191de
GLOBL rotLo<>(SB), RODATA|NOPTR, $32

DATA rotHi<>+0(SB)/8, $0x3ff0000192a73711
DATA rotHi<>+8(SB)/8, $0x3ff0000192a73711
DATA rotHi<>+16(SB)/8, $0x3ff0000192a73711
DATA rotHi<>+24(SB)/8, $0x3ff0000192a73711
GLOBL rotHi<>(SB), RODATA|NOPTR, $32

// func rotateAsm(x0, x1, x2, x3 []complex128, r *Rotators, both bool) int
//
// Lane k rides element k of every vector. Per sample, the four lanes'
// samples are gathered into a = re and b = im vectors (two 128-bit loads
// per pair of lanes, VINSERTF128, VUNPCKLPD/VUNPCKHPD), multiplied by the
// coarse oscillator sample u — a*ur - b*ui, a*ui + b*ur, the twin's order —
// and, with both, by the fine sample v the same way; the results are
// scattered back. Each recurrence then advances, state*step in the same
// form, and the new state's squared magnitude is compared with the
// screening band (LT_OQ $17 against rotLo, GT_OQ $30 against rotHi, both
// false on NaN like Go's < and >). A drifted lane ends the call after the
// sample, with the states as advanced.
//
// Register plan: R8..R11 the lanes' sample pointers, CX the sample count,
// AX the sample index, DI the Rotators, Y6/Y7 coarse state, Y8/Y9 coarse
// step, Y10/Y11 fine state, Y12/Y13 fine step, Y4/Y5 the samples.
TEXT ·rotateAsm(SB), NOSPLIT, $0-120
	MOVQ    x0_base+0(FP), R8
	MOVQ    x0_len+8(FP), CX
	MOVQ    x1_base+24(FP), R9
	MOVQ    x2_base+48(FP), R10
	MOVQ    x3_base+72(FP), R11
	MOVQ    r+96(FP), DI
	MOVBLZX both+104(FP), DX
	VMOVUPD 0(DI), Y6
	VMOVUPD 32(DI), Y7
	VMOVUPD 64(DI), Y8
	VMOVUPD 96(DI), Y9
	VMOVUPD 128(DI), Y10
	VMOVUPD 160(DI), Y11
	VMOVUPD 192(DI), Y12
	VMOVUPD 224(DI), Y13
	XORQ    AX, AX

rotate_sample:
	VMOVUPD     (R8), X0
	VMOVUPD     (R9), X1
	VINSERTF128 $1, (R10), Y0, Y0 // {a0, b0, a2, b2}
	VINSERTF128 $1, (R11), Y1, Y1 // {a1, b1, a3, b3}
	VUNPCKLPD   Y1, Y0, Y4        // a
	VUNPCKHPD   Y1, Y0, Y5        // b

	// x*u, then the coarse state advances and is screened.
	VMULPD Y6, Y4, Y0
	VMULPD Y7, Y5, Y1
	VSUBPD Y1, Y0, Y0  // a*ur - b*ui
	VMULPD Y7, Y4, Y1
	VMULPD Y6, Y5, Y2
	VADDPD Y2, Y1, Y5  // a*ui + b*ur
	VMOVAPD Y0, Y4
	VMULPD Y8, Y6, Y0
	VMULPD Y9, Y7, Y1
	VSUBPD Y1, Y0, Y0  // ur*sr - ui*si
	VMULPD Y9, Y6, Y1
	VMULPD Y8, Y7, Y2
	VADDPD Y2, Y1, Y7  // ur*si + ui*sr
	VMOVAPD Y0, Y6
	VMULPD Y6, Y6, Y0
	VMULPD Y7, Y7, Y1
	VADDPD Y1, Y0, Y0
	VCMPPD $17, rotLo<>(SB), Y0, Y1
	VCMPPD $30, rotHi<>(SB), Y0, Y2
	VORPD  Y2, Y1, Y15
	TESTQ  DX, DX
	JE     rotate_store

	// (x*u)*v, then the fine state advances and is screened.
	VMULPD Y10, Y4, Y0
	VMULPD Y11, Y5, Y1
	VSUBPD Y1, Y0, Y0
	VMULPD Y11, Y4, Y1
	VMULPD Y10, Y5, Y2
	VADDPD Y2, Y1, Y5
	VMOVAPD Y0, Y4
	VMULPD Y12, Y10, Y0
	VMULPD Y13, Y11, Y1
	VSUBPD Y1, Y0, Y0
	VMULPD Y13, Y10, Y1
	VMULPD Y12, Y11, Y2
	VADDPD Y2, Y1, Y11
	VMOVAPD Y0, Y10
	VMULPD Y10, Y10, Y0
	VMULPD Y11, Y11, Y1
	VADDPD Y1, Y0, Y0
	VCMPPD $17, rotLo<>(SB), Y0, Y1
	VCMPPD $30, rotHi<>(SB), Y0, Y2
	VORPD  Y2, Y1, Y1
	VORPD  Y1, Y15, Y15

rotate_store:
	VUNPCKLPD    Y5, Y4, Y0 // {a0, b0, a2, b2}
	VUNPCKHPD    Y5, Y4, Y1 // {a1, b1, a3, b3}
	VMOVUPD      X0, (R8)
	VMOVUPD      X1, (R9)
	VEXTRACTF128 $1, Y0, (R10)
	VEXTRACTF128 $1, Y1, (R11)
	ADDQ         $16, R8
	ADDQ         $16, R9
	ADDQ         $16, R10
	ADDQ         $16, R11
	INCQ         AX
	VMOVMSKPD    Y15, BX
	TESTQ        BX, BX
	JNE          rotate_done
	CMPQ         AX, CX
	JLT          rotate_sample

rotate_done:
	VMOVUPD Y6, 0(DI)
	VMOVUPD Y7, 32(DI)
	VMOVUPD Y10, 128(DI)
	VMOVUPD Y11, 160(DI)
	MOVQ    AX, ret+112(FP)
	VZEROUPPER
	RET
