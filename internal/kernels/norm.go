package kernels

// NormDraws and NormDrawPairs run the fast path of math/rand's ziggurat
// normal sampler (Marsaglia & Tsang, 128 strips) over math/rand's additive
// lagged-Fibonacci register, x[n] = x[n-607] + x[n-273]. The register, its
// walkers and the strip table belong to the caller (the generator); the
// kernel only reads and advances them.
//
// Per draw: one register step (both walkers down by one, the feed slot
// replaced by feed + tap), j = int32(x >> 31), strip k = j & 0x7F, and
// the draw float64(j)*float64(wn[k]) when |j| < kn[k] — better than 98%
// of draws. A value written at the feed slot is read at the tap slot 273
// steps later, so any four consecutive steps are independent: the AVX2 tier
// takes them as one vector over four descending register slots.
//
// The kernels do only that. They stop before the first draw the strip test
// rejects and before a step that would wrap a walker through index 0,
// leaving both to the caller's scalar sampler, and return the number of
// draws done; the walkers are then tap-n and feed-n.

// NormRegLen is the length of math/rand's feedback register.
const NormRegLen = 607

// normLag is the walkers' distance: the tap slot is the feed slot plus 273,
// modulo the register length, at every step.
const normLag = 273

// NormStrip is one ziggurat strip: math/rand's acceptance bound kn[k] and
// strip width wn[k] side by side, so one 8-byte load serves a draw.
type NormStrip struct {
	KN uint32
	WN float32
}

// NormTable is the ziggurat's strip table.
type NormTable [128]NormStrip

// NormDrawsRef is the retained naive reference for NormDraws: the scalar
// fast-path loop, one register step per draw, stopping at the first
// rejected draw or walker wrap. Frozen as the differential-test oracle.
func NormDrawsRef(dst []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable, mul, add float64) int {
	for i := range dst {
		v, ok := normStepRef(reg, &tap, &feed, tab)
		if !ok {
			return i
		}
		dst[i] = add + v*mul
	}
	return len(dst)
}

// NormDrawPairsRef is the retained naive reference for NormDrawPairs: the
// scalar fast-path loop drawing re[i], then im[i]. Frozen as the
// differential-test oracle.
func NormDrawPairsRef(re, im []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable) int {
	im = im[:len(re)]
	for i := range re {
		v, ok := normStepRef(reg, &tap, &feed, tab)
		if !ok {
			return 2 * i
		}
		re[i] = v
		if v, ok = normStepRef(reg, &tap, &feed, tab); !ok {
			return 2*i + 1
		}
		im[i] = v
	}
	return 2 * len(re)
}

// normStepRef takes one fast-path draw: it reports false, leaving the
// register and walkers untouched, when a walker sits at 0 or the strip
// test rejects.
func normStepRef(reg *[NormRegLen]int64, tap, feed *int, tab *NormTable) (float64, bool) {
	if *tap == 0 || *feed == 0 {
		return 0, false
	}
	t, f := *tap-1, *feed-1
	x := reg[f] + reg[t]
	j := int32(uint32(uint64(x) >> 31))
	s := tab[j&0x7F]
	a := uint32(j)
	if j < 0 {
		a = uint32(-j)
	}
	if a >= s.KN {
		return 0, false
	}
	reg[f] = x
	*tap, *feed = t, f
	return float64(j) * float64(s.WN), true
}

// NormDraws writes dst[i] = add + v*mul for successive fast-path draws v —
// a separate multiply and add, as the scalar expression — and returns the
// number done: len(dst), or fewer when the next draw is rejected or would
// wrap a walker. reg, tap and feed are math/rand's register and walkers,
// tab its strip table. Bit-identical to NormDrawsRef on either dispatch
// tier.
//
//lint:hotpath
func NormDraws(dst []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable, mul, add float64) int {
	i := 0
	if normLagged(tap, feed) {
		if useSIMD {
			i = normQuadsSIMD(dst, nil, reg, tap, feed, tab, mul, add, false)
		} else {
			i = normQuadsGo(dst, nil, reg, tap, feed, tab, mul, add, false)
		}
		if i < normQuadLimit(dst, nil, tap, feed, false) {
			return i // stopped at a rejected draw
		}
	}
	return i + NormDrawsRef(dst[i:], reg, tap-i, feed-i, tab, mul, add)
}

// NormDrawPairs draws re[i], then im[i], and returns the number of draws
// done: 2*len(re), or fewer when the next draw is rejected or would wrap a
// walker (an odd count ends after a re). im must have at least len(re)
// elements. Bit-identical to NormDrawPairsRef on either dispatch tier.
//
//lint:hotpath
func NormDrawPairs(re, im []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable) int {
	im = im[:len(re)]
	i := 0
	if normLagged(tap, feed) {
		// v*1 + 0 is v: a draw is never -0.
		if useSIMD {
			i = normQuadsSIMD(re, im, reg, tap, feed, tab, 1, 0, true)
		} else {
			i = normQuadsGo(re, im, reg, tap, feed, tab, 1, 0, true)
		}
		if i < normQuadLimit(re, im, tap, feed, true) {
			return i // stopped at a rejected draw
		}
	}
	return i + NormDrawPairsRef(re[i/2:], im[i/2:], reg, tap-i, feed-i, tab)
}

// normLagged reports whether the walkers are in range and hold math/rand's
// lag, the quad body's precondition; otherwise the scalar loop does every
// draw.
func normLagged(tap, feed int) bool {
	return uint(tap) < NormRegLen && uint(feed) < NormRegLen &&
		(tap-feed == normLag || feed-tap == NormRegLen-normLag)
}

// normQuadLimit is the number of draws the quad body may take: whole quads
// that fit the output and keep both walkers at or above 0.
func normQuadLimit(lo, hi []float64, tap, feed int, pairs bool) int {
	n := len(lo)
	if pairs {
		n = 2 * min(len(lo), len(hi))
	}
	return min(n, tap, feed) &^ 3
}

// normQuadsGo is the pure-Go tier of the quad body and the twin of
// normQuadsAsm. It takes the draws of whole quads while a quad fits the
// output and leaves both walkers at or above 0, and stops at the first
// rejected draw, returning the number of draws done. Draw i goes to lo[i],
// or with pairs to lo[i/2] (even i) and hi[i/2] (odd i), as add + v*mul.
// The walkers must be in range and hold math/rand's lag, so that the four
// register slots a quad writes are none of the four it reads.
//
//lint:hotpath
func normQuadsGo(lo, hi []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable, mul, add float64, pairs bool) int {
	n := normQuadLimit(lo, hi, tap, feed, pairs)
	// Draw i steps the walkers to feed-1-i and tap-1-i: element n-1-i of
	// these windows.
	fs := reg[feed-n : feed]
	ts := reg[tap-n : tap]
	ts = ts[:len(fs)]
	if !pairs {
		lo = lo[:n]
		for i := range lo {
			k := n - 1 - i
			x := fs[k] + ts[k]
			v, ok := normFast(x, tab)
			if !ok {
				return i
			}
			fs[k] = x
			lo[i] = add + v*mul
		}
		return n
	}
	lo, hi = lo[:n/2], hi[:n/2]
	for i := range lo {
		k := n - 2 - 2*i
		f, t := fs[k:k+2:k+2], ts[k:k+2:k+2] // draw 2i in [1], 2i+1 in [0]
		x := f[1] + t[1]
		v, ok := normFast(x, tab)
		if !ok {
			return 2 * i
		}
		f[1] = x
		lo[i] = add + v*mul
		x = f[0] + t[0]
		if v, ok = normFast(x, tab); !ok {
			return 2*i + 1
		}
		f[0] = x
		hi[i] = add + v*mul
	}
	return n
}

// normFast is the fast path of the draw on register output x: the draw
// float64(j)*float64(wn[k]), and whether the strip test |j| < kn[k]
// accepts it.
func normFast(x int64, tab *NormTable) (float64, bool) {
	j := int32(uint32(uint64(x) >> 31))
	s := tab[j&0x7F]
	a := uint32(j)
	if j < 0 {
		a = uint32(-j)
	}
	return float64(j) * float64(s.WN), a < s.KN
}
