package randutil

import "math/rand"

// The arithmetic reseed path. rngSource.Seed walks a MINSTD linear
// congruential generator (x ← 48271·x mod 2³¹−1, in Schrage form with a
// hardware divide per step) 20 warmup steps plus three steps per register
// entry, folding each triple into the entry together with a baked-in
// "cooked" mask — ~1800 sequential divides per reseed. Per-packet derived
// seeds turned that walk into a per-packet cost. reseed computes the
// identical register directly: the three LCG draws entering entry i sit at
// advance counts 21+3i, 22+3i and 23+3i from the folded seed, so three
// lanes starting at x₀·48271²¹, x₀·48271²² and x₀·48271²³ (mod M) and each
// stepping by 48271³ per entry produce exactly those draws with three
// Mersenne-prime modular multiplies per entry — no division, and the three
// lanes' dependency chains overlap. The cooked mask is recovered once at
// init by seeding a throwaway stdlib source and XORing the computed lane
// chain back off its register; a multi-seed self-check gates the path, so a
// future stdlib that changes its seeding procedure falls back to the
// snapshot cache instead of diverging.

const (
	// minstdM is the MINSTD modulus 2³¹−1 — a Mersenne prime, which is what
	// makes the reduction in mulmod31 two folds and a conditional subtract.
	minstdM = (1 << 31) - 1
	// minstdA is the multiplier of math/rand's seeding LCG.
	minstdA = 48271
)

// mulmod31 returns a·b mod 2³¹−1 for a, b < 2³¹. The 62-bit product is
// reduced by two Mersenne folds (p ≡ (p & M) + (p >> 31) mod M) and one
// conditional subtract; the result is exact because M is prime and both
// factors are nonzero residues, so the true residue is never the ambiguous
// 0 ≡ M.
func mulmod31(a, b uint64) uint64 {
	p := a * b
	r := (p & minstdM) + (p >> 31)
	r = (r & minstdM) + (r >> 31)
	if r >= minstdM {
		r -= minstdM
	}
	return r
}

// powmod31 returns base^exp mod 2³¹−1 by square-and-multiply.
func powmod31(base, exp uint64) uint64 {
	r := uint64(1)
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			r = mulmod31(r, base)
		}
		base = mulmod31(base, base)
	}
	return r
}

var (
	// laneStart is 48271²¹ mod M — the LCG advance count of the first draw
	// after the 20 warmup steps. laneStep is 48271³, one register entry's
	// worth of draws.
	laneStart = powmod31(minstdA, 21)
	laneStep  = powmod31(minstdA, 3)

	// reseedCooked holds math/rand's baked-in seeding mask, recovered by the
	// init probe; reseedTap/reseedFeed are the post-Seed walker positions.
	// reseedOK gates the arithmetic path on the probe and its self-check.
	reseedCooked [rngLen]uint64
	reseedTap    int
	reseedFeed   int
	reseedOK     bool
)

// seedLanes folds seed the way rngSource.Seed does (mod 2³¹−1, shifted
// positive, zero mapped to 89482311) and returns the three lane start
// values.
func seedLanes(seed int64) (a, b, c uint64) {
	x := seed % minstdM
	if x < 0 {
		x += minstdM
	}
	if x == 0 {
		x = 89482311
	}
	a = mulmod31(uint64(x), laneStart)
	b = mulmod31(a, minstdA)
	c = mulmod31(b, minstdA)
	return
}

// reseed initializes s to seed's post-seeding state, bit-identical to
// rngSource.Seed. Callers must have checked reseedOK.
func (s *fibSource) reseed(seed int64) {
	s.tap, s.feed = reseedTap, reseedFeed
	a, b, c := seedLanes(seed)
	for i := range s.vec {
		s.vec[i] = int64(a<<40 ^ b<<20 ^ c ^ reseedCooked[i])
		a = mulmod31(a, laneStep)
		b = mulmod31(b, laneStep)
		c = mulmod31(c, laneStep)
	}
}

func init() {
	src := sourceStateOf(rand.New(rand.NewSource(1)))
	if src == nil {
		return // layout probe failed; Seed keeps the snapshot-cache path
	}
	a, b, c := seedLanes(1)
	for i := range reseedCooked {
		reseedCooked[i] = uint64(src.vec[i]) ^ (a<<40 ^ b<<20 ^ c)
		a = mulmod31(a, laneStep)
		b = mulmod31(b, laneStep)
		c = mulmod31(c, laneStep)
	}
	reseedTap, reseedFeed = src.tap, src.feed
	// Self-check on seeds the derivation did not see — a zero, a negative,
	// a multiple of the modulus and a large 63-bit value — before enabling
	// the path for everyone.
	for _, s := range []int64{0, 42, -9, 3 * minstdM, 1 << 62} {
		ref := sourceStateOf(rand.New(rand.NewSource(s)))
		var got fibSource
		got.reseed(s)
		if ref == nil || got.tap != ref.tap || got.feed != ref.feed || got.vec != ref.vec {
			return
		}
	}
	reseedOK = true
}

// NewReseedingRand returns a generator bit-identical to
// rand.New(rand.NewSource(seed)) whose Seed method recomputes the register
// arithmetically instead of caching per-seed snapshots (a snapshot cache
// pins ~5 KB per distinct seed for the process lifetime, which per-point
// derived seeds would grow without bound). Falls back to the stock source
// when the layout probe or the reseed self-check failed.
func NewReseedingRand(seed int64) *rand.Rand {
	if reseedOK {
		s := &fibSource{}
		s.reseed(seed)
		return rand.New(s)
	}
	return rand.New(rand.NewSource(seed))
}
