package kernels

import "os"

// SIMD dispatch. The assembly tier (simd_*.s) reimplements the hot kernels
// with one vector lane per independent scalar dependency chain — no FMA, no
// reassociation, one rounding per operation in the scalar order — so its
// results are bit-identical to the pure-Go twins by construction, and the
// asm/Go pair is pinned by the asmtwins differential suite on every build.
//
// Selection is two-layered:
//
//   - compile time: the asm tier exists only on supported architectures and
//     vanishes under the `purego` build tag (stubs_noasm.go aliases every
//     SIMD entry point to its Go twin);
//   - run time: simdAvailable is probed once at startup (CPUID on amd64; no
//     third-party cpu package), the WLANSIM_SIMD environment variable can
//     veto it, and SetDispatch flips the active path so differential tests
//     force both.
//
// useSIMD is a plain bool read on every kernel call: flipping it is not
// synchronized and is meant for startup and for tests that own all kernel
// callers, not for concurrent toggling mid-run.
var useSIMD = simdAvailable && envSIMDEnabled()

// envSIMDEnabled consults the WLANSIM_SIMD environment variable: "off", "0"
// and "false" force the pure-Go tier; anything else (including unset) keeps
// the probed default.
func envSIMDEnabled() bool {
	switch os.Getenv("WLANSIM_SIMD") {
	case "off", "0", "false":
		return false
	}
	return true
}

// SIMDAvailable reports whether this binary carries an assembly kernel tier
// usable on this CPU (regardless of whether it is currently selected).
func SIMDAvailable() bool { return simdAvailable }

// SetDispatch selects the kernel tier: on requests the SIMD tier (granted
// only when available), false forces the pure-Go tier. It returns the name
// of the tier now active, and is intended for startup configuration and for
// differential tests that must exercise both paths — it is not safe to call
// concurrently with running kernels.
//
//lint:ignore testonly flips the unexported useSIMD for the dual-tier tests in core, dsp, phy, rf and randutil
func SetDispatch(on bool) string {
	useSIMD = on && simdAvailable
	return DispatchName()
}

// DispatchName names the active kernel tier: the architecture tier ("avx2")
// when SIMD is selected, "purego" otherwise.
func DispatchName() string {
	if useSIMD {
		return simdTier
	}
	return "purego"
}

// SIMDWidth returns the number of independent float64 chains one vector of
// the active tier carries: 4 on AVX2, 1 on the pure-Go tier. Batch schedulers
// use it to round batch widths up to a multiple of the vector width.
func SIMDWidth() int {
	if useSIMD {
		return simdWidth
	}
	return 1
}
