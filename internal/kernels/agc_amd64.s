//go:build amd64 && !purego

#include "textflag.h"

// AVX2 body of the AGC lane kernel (agc.go), under simd_amd64.s's rules:
// one lane of the Go law per vector lane, its operation order, no FMA.
// The macros precede every TEXT symbol, since they address the frame.

// AGCLaw field offsets (TestAGCLayout pins them, and AGCLane's 32-byte
// {GainLin, GainDB, Est, Resync} rows, to the Go structs).
#define AGC_ALPHA 0
#define AGC_ATTACK 8
#define AGC_RELEASE 16
#define AGC_INVTARGET 24
#define AGC_UATTACK 32
#define AGC_URELEASE 40
#define AGC_MINGAIN 48
#define AGC_MAXGAIN 56

// agcK holds agcQuadAsm's constant operands, each in four copies (one ymm),
// bit for bit the constants of agcRunGo and its series.
#define AGCK(off, v) \
	DATA agcK<>+(off)(SB)/8, v \
	DATA agcK<>+(off+8)(SB)/8, v \
	DATA agcK<>+(off+16)(SB)/8, v \
	DATA agcK<>+(off+24)(SB)/8, v

AGCK(0, $0x3ff0000000000000)   // 1.0
AGCK(32, $0x3fd5555555555555)  // 1.0/3
AGCK(64, $0x3fc999999999999a)  // 1.0/5
AGCK(96, $0x3fc2492492492492)  // 1.0/7
AGCK(128, $0x3fbc71c71c71c71c) // 1.0/9
AGCK(160, $0x4026000000000000) // 11
AGCK(192, $0x4008000000000000) // 3
AGCK(224, $0x4014000000000000) // 5
AGCK(256, $0x3fe0000000000000) // 0.5 (x/2 as x*0.5, as the compiler emits it)
AGCK(288, $0x3fd0000000000000) // 0.25 (x/4)
AGCK(320, $0x4000000000000000) // 2
AGCK(352, $0x3fe62e42fefa39ef) // ln 2
AGCK(384, $0xc0115f2ced384f29) // -10/ln 10
AGCK(416, $0x3fbd791c5f888822) // ln 10/20
AGCK(448, $0xbff8000000000000) // -AGCAttackClampDB
AGCK(480, $0x3f847ae147ae147b) // AGCReleaseClampDB
AGCK(512, $0x0010000000000000) // 2^-1022, the smallest normal
AGCK(544, $0x4330000000000000) // 2^52
AGCK(576, $0x408ff80000000000) // 1023, the exponent bias
AGCK(608, $0x404a000000000000) // 52
AGCK(640, $0x800fffffffffffff) // sign and mantissa bits
AGCK(672, $0x00000000000000ff) // int64 AGCResyncInterval-1
AGCK(704, $0x0000000000000000) // 0
GLOBL agcK<>(SB), RODATA|NOPTR, $736

// AGCSTEP advances one quad of AGC lanes by sample CX: state registers
// GL gainLin, GD gainDB, ES est, RS resync (int64), lane data at P0-P3,
// R12 = 16·CX, the law's broadcast constants in the frame (see agcQuadAsm);
// Y4-Y11 are scratch. Per lane it is every operation of agcRunGo in its
// order, without branches: the power estimate, the unclamped step through
// one lnNear1 of W (u itself near lock, else 2m of frexp(u) = m·2^k, the
// exponent taken with integer ops and a subnormal u pre-scaled by 2^52 as
// math.Frexp does, plus (k-1)·ln 2), the release and attack clamps and the
// gain clamp by compare-and-blend, and the incremental gain update where
// e > 0 and the gain moved.
#define AGCSTEP(GL, GD, ES, RS, P0, P1, P2, P3) \
	VMOVUPD      (P0)(R12*1), X4                \
	VINSERTF128  $1, (P2)(R12*1), Y4, Y4        \ // re0 im0 | re2 im2
	VMOVUPD      (P1)(R12*1), X5                \
	VINSERTF128  $1, (P3)(R12*1), Y5, Y5        \ // re1 im1 | re3 im3
	VUNPCKLPD    Y5, Y4, Y6                     \
	VUNPCKHPD    Y5, Y4, Y7                     \
	VMULPD       Y6, GL, Y6                     \ // yr
	VMULPD       Y7, GL, Y7                     \ // yi
	VUNPCKLPD    Y7, Y6, Y4                     \
	VUNPCKHPD    Y7, Y6, Y5                     \
	VMOVUPD      X4, (P0)(R12*1)                \
	VEXTRACTF128 $1, Y4, (P2)(R12*1)            \
	VMOVUPD      X5, (P1)(R12*1)                \
	VEXTRACTF128 $1, Y5, (P3)(R12*1)            \
	VMULPD       Y6, Y6, Y6                     \
	VMULPD       Y7, Y7, Y7                     \
	VADDPD       Y7, Y6, Y6                     \ // p
	VSUBPD       ES, Y6, Y6                     \
	VMULPD       0(SP), Y6, Y6                  \
	VADDPD       Y6, ES, ES                     \ // est = e
	VMULPD       32(SP), ES, Y4                 \ // u
	VCMPPD       $0x11, agcK<>+512(SB), Y4, Y5  \ // subnormal u
	VMULPD       agcK<>+544(SB), Y4, Y6         \
	VBLENDVPD    Y5, Y6, Y4, Y6                 \ // u, normalized
	VANDPD       agcK<>+608(SB), Y5, Y5         \
	VADDPD       agcK<>+576(SB), Y5, Y5         \ // 1023, or 1075 when scaled
	VPSRLQ       $52, Y6, Y8                    \ // biased exponent
	VPOR         agcK<>+544(SB), Y8, Y8         \
	VSUBPD       agcK<>+544(SB), Y8, Y8         \ // as a float
	VSUBPD       Y5, Y8, Y8                     \ // kf = float64(k-1)
	VANDPD       agcK<>+640(SB), Y6, Y6         \
	VORPD        agcK<>+0(SB), Y6, Y6           \ // 2m in [1, 2)
	VCMPPD       $0x1E, agcK<>+256(SB), Y4, Y5  \ // u > 0.5
	VCMPPD       $0x11, agcK<>+320(SB), Y4, Y7  \ // u < 2
	VANDPD       Y7, Y5, Y5                     \ // near lock
	VBLENDVPD    Y5, Y4, Y6, Y6                 \ // W
	VSUBPD       agcK<>+0(SB), Y6, Y7           \
	VADDPD       agcK<>+0(SB), Y6, Y9           \
	VDIVPD       Y9, Y7, Y7                     \ // z = (W-1)/(W+1)
	VMULPD       Y7, Y7, Y9                     \ // z2
	VDIVPD       agcK<>+160(SB), Y9, Y10        \ // z2/11
	VADDPD       agcK<>+128(SB), Y10, Y10       \
	VMULPD       Y10, Y9, Y10                   \
	VADDPD       agcK<>+96(SB), Y10, Y10        \
	VMULPD       Y10, Y9, Y10                   \
	VADDPD       agcK<>+64(SB), Y10, Y10        \
	VMULPD       Y10, Y9, Y10                   \
	VADDPD       agcK<>+32(SB), Y10, Y10        \
	VMULPD       Y10, Y9, Y10                   \
	VADDPD       agcK<>+0(SB), Y10, Y10         \
	VADDPD       Y7, Y7, Y7                     \ // 2z
	VMULPD       Y10, Y7, Y7                    \ // lnNear1(W)
	VMULPD       agcK<>+352(SB), Y8, Y8         \
	VADDPD       Y8, Y7, Y8                     \ // lnWide(u)
	VBLENDVPD    Y5, Y7, Y8, Y7                 \ // ln u
	VMULPD       agcK<>+384(SB), Y7, Y7         \ // errDB
	VCMPPD       $0x11, agcK<>+704(SB), Y7, Y5  \ // errDB < 0
	VMULPD       128(SP), Y7, Y8                \
	VMULPD       160(SP), Y7, Y7                \
	VBLENDVPD    Y5, Y8, Y7, Y7                 \ // unclamped step
	VCMPPD       $0x12, 96(SP), Y4, Y5          \ // u <= uRelease
	VBLENDVPD    Y5, agcK<>+480(SB), Y7, Y7     \
	VCMPPD       $0x1D, 64(SP), Y4, Y5          \ // u >= uAttack
	VBLENDVPD    Y5, agcK<>+448(SB), Y7, Y7     \ // step
	VADDPD       Y7, GD, Y7                     \ // gainDB + step
	VMOVUPD      224(SP), Y9                    \
	VCMPPD       $0x1E, Y9, Y7, Y5              \
	VBLENDVPD    Y5, Y9, Y7, Y8                 \ // above max: max
	VMOVUPD      192(SP), Y9                    \
	VCMPPD       $0x11, Y9, Y7, Y5              \
	VBLENDVPD    Y5, Y9, Y8, Y8                 \ // below min: min, so g
	VCMPPD       $0x04, GD, Y8, Y5              \ // g != gainDB
	VCMPPD       $0x1E, agcK<>+704(SB), ES, Y6  \ // e > 0
	VANDPD       Y6, Y5, Y5                     \ // moved
	VSUBPD       GD, Y8, Y9                     \
	VMULPD       agcK<>+416(SB), Y9, Y9         \ // x = d·ln10/20
	VDIVPD       agcK<>+224(SB), Y9, Y10        \ // x/5
	VADDPD       agcK<>+0(SB), Y10, Y10         \
	VMULPD       agcK<>+288(SB), Y9, Y11        \ // x/4
	VMULPD       Y10, Y11, Y10                  \
	VADDPD       agcK<>+0(SB), Y10, Y10         \
	VDIVPD       agcK<>+192(SB), Y9, Y11        \ // x/3
	VMULPD       Y10, Y11, Y10                  \
	VADDPD       agcK<>+0(SB), Y10, Y10         \
	VMULPD       agcK<>+256(SB), Y9, Y11        \ // x/2
	VMULPD       Y10, Y11, Y10                  \
	VADDPD       agcK<>+0(SB), Y10, Y10         \
	VMULPD       Y10, Y9, Y10                   \
	VADDPD       agcK<>+0(SB), Y10, Y10         \ // expSmall(x)
	VMULPD       Y10, GL, Y10                   \
	VBLENDVPD    Y5, Y10, GL, GL                \ // gainLin
	VBLENDVPD    Y5, Y8, GD, GD                 \ // gainDB
	VPSUBQ       Y5, RS, RS                       // resync += moved

// AGCLAW broadcasts the law's constants into the frame: 0 alpha,
// 32 1/target, 64 uAttack, 96 uRelease, 128 attack, 160 release, 192 min
// gain, 224 max gain.
#define AGCLAW(law) \
	VBROADCASTSD AGC_ALPHA(law), Y4     \
	VMOVUPD      Y4, 0(SP)              \
	VBROADCASTSD AGC_INVTARGET(law), Y4 \
	VMOVUPD      Y4, 32(SP)             \
	VBROADCASTSD AGC_UATTACK(law), Y4   \
	VMOVUPD      Y4, 64(SP)             \
	VBROADCASTSD AGC_URELEASE(law), Y4  \
	VMOVUPD      Y4, 96(SP)             \
	VBROADCASTSD AGC_ATTACK(law), Y4    \
	VMOVUPD      Y4, 128(SP)            \
	VBROADCASTSD AGC_RELEASE(law), Y4   \
	VMOVUPD      Y4, 160(SP)            \
	VBROADCASTSD AGC_MINGAIN(law), Y4   \
	VMOVUPD      Y4, 192(SP)            \
	VBROADCASTSD AGC_MAXGAIN(law), Y4   \
	VMOVUPD      Y4, 224(SP)

// AGCLOAD transposes the four {GainLin, GainDB, Est, Resync} rows at off(SI)
// into GL, GD, ES, RS; AGCSTORE writes them back.
#define AGCLOAD(off, GL, GD, ES, RS) \
	VMOVUPD    off+0(SI), Y4          \
	VMOVUPD    off+32(SI), Y5         \
	VMOVUPD    off+64(SI), Y6         \
	VMOVUPD    off+96(SI), Y7         \
	VUNPCKLPD  Y5, Y4, Y8             \
	VUNPCKHPD  Y5, Y4, Y9             \
	VUNPCKLPD  Y7, Y6, Y10            \
	VUNPCKHPD  Y7, Y6, Y11            \
	VPERM2F128 $0x20, Y10, Y8, GL     \
	VPERM2F128 $0x20, Y11, Y9, GD     \
	VPERM2F128 $0x31, Y10, Y8, ES     \
	VPERM2F128 $0x31, Y11, Y9, RS

#define AGCSTORE(off, GL, GD, ES, RS) \
	VUNPCKLPD  GD, GL, Y4             \
	VUNPCKHPD  GD, GL, Y5             \
	VUNPCKLPD  RS, ES, Y6             \
	VUNPCKHPD  RS, ES, Y7             \
	VPERM2F128 $0x20, Y6, Y4, Y8      \
	VPERM2F128 $0x20, Y7, Y5, Y9      \
	VPERM2F128 $0x31, Y6, Y4, Y10     \
	VPERM2F128 $0x31, Y7, Y5, Y11     \
	VMOVUPD    Y8, off+0(SI)          \
	VMOVUPD    Y9, off+32(SI)         \
	VMOVUPD    Y10, off+64(SI)        \
	VMOVUPD    Y11, off+96(SI)

// func agcQuadAsm(lanes [][]complex128, i, n int, st *[4]AGCLane, law *AGCLaw) int
//
// Four AGC lanes, one per vector lane, sample-major from i (AGCSTEP). After
// each sample it returns if a lane's Resync passed AGCResyncInterval-1; the
// return value is the index after the last sample done.
//
// Register plan: R8-R11 lane data, CX index, DX n, R12 byte offset, SI st;
// Y0 gainLin, Y1 gainDB, Y2 est, Y3 resync; frame: the law (AGCLAW).
TEXT ·agcQuadAsm(SB), NOSPLIT, $256-64
	MOVQ lanes_base+0(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ i+24(FP), CX
	MOVQ n+32(FP), DX
	MOVQ st+40(FP), SI
	MOVQ law+48(FP), BX
	AGCLAW(BX)
	AGCLOAD(0, Y0, Y1, Y2, Y3)

agcquad_loop:
	CMPQ     CX, DX
	JGE      agcquad_done
	MOVQ     CX, R12
	SHLQ     $4, R12
	AGCSTEP(Y0, Y1, Y2, Y3, R8, R9, R10, R11)
	INCQ     CX
	VPCMPGTQ agcK<>+672(SB), Y3, Y5
	VPTEST   Y5, Y5
	JZ       agcquad_loop

agcquad_done:
	AGCSTORE(0, Y0, Y1, Y2, Y3)
	MOVQ CX, ret+56(FP)
	VZEROUPPER
	RET

// func agcOctAsm(lanes [][]complex128, i, n int, st *[8]AGCLane, law *AGCLaw) int
//
// Eight AGC lanes as two quads stepped one after the other per sample, so
// the out-of-order core overlaps the two quads' serial loop chains; the
// exit rule is agcQuadAsm's over all eight lanes.
//
// Register plan: agcQuadAsm's for lanes 0-3; BX, R13-R15 lane data and
// Y12 gainLin, Y13 gainDB, Y14 est, Y15 resync for lanes 4-7.
TEXT ·agcOctAsm(SB), NOSPLIT, $256-64
	MOVQ lanes_base+0(FP), AX
	MOVQ law+48(FP), BX
	AGCLAW(BX)
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ 96(AX), BX
	MOVQ 120(AX), R13
	MOVQ 144(AX), R14
	MOVQ 168(AX), R15
	MOVQ i+24(FP), CX
	MOVQ n+32(FP), DX
	MOVQ st+40(FP), SI
	AGCLOAD(0, Y0, Y1, Y2, Y3)
	AGCLOAD(128, Y12, Y13, Y14, Y15)

agcoct_loop:
	CMPQ     CX, DX
	JGE      agcoct_done
	MOVQ     CX, R12
	SHLQ     $4, R12
	AGCSTEP(Y0, Y1, Y2, Y3, R8, R9, R10, R11)
	AGCSTEP(Y12, Y13, Y14, Y15, BX, R13, R14, R15)
	INCQ     CX
	VPCMPGTQ agcK<>+672(SB), Y3, Y5
	VPCMPGTQ agcK<>+672(SB), Y15, Y6
	VPOR     Y6, Y5, Y5
	VPTEST   Y5, Y5
	JZ       agcoct_loop

agcoct_done:
	AGCSTORE(0, Y0, Y1, Y2, Y3)
	AGCSTORE(128, Y12, Y13, Y14, Y15)
	MOVQ CX, ret+56(FP)
	VZEROUPPER
	RET
