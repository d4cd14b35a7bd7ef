// Package seed derives reproducible, statistically independent RNG seeds
// for parallel Monte-Carlo work. A sweep that fans points out across
// goroutines must not share one sequential RNG between points — the stream
// position would then depend on scheduling and the results on the worker
// count. Instead every unit of work (a sweep point, a packet within a
// point) derives its own seed from the experiment's root seed and a stable
// label, so `Workers=1` and `Workers=N` visit exactly the same random
// realizations.
//
// The mixing function is the SplitMix64 finalizer (Steele, Lea, Flood:
// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014), whose
// output is equidistributed over the 64-bit state space: adjacent labels
// (packet 0, 1, 2, ...) map to uncorrelated seeds, unlike `root+i` schemes
// that hand correlated states to math/rand's lagged-Fibonacci source.
package seed

import "math"

// splitmix64 is the SplitMix64 state advance + finalizer for one step.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15 // golden-ratio increment
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Derive mixes a root seed with an ordered sequence of labels into a new
// seed. The chaining is order-sensitive: Derive(r, a, b) != Derive(r, b, a)
// in general, so hierarchical derivations (sweep -> point -> packet) do not
// collide across levels.
func Derive(root int64, labels ...uint64) int64 {
	s := splitmix64(uint64(root))
	for _, l := range labels {
		s = splitmix64(s ^ splitmix64(l))
	}
	return int64(s)
}

// Domain-separation labels keep the per-point, per-series, per-stage and
// content-key derivation trees disjoint even when their numeric labels
// coincide.
const (
	domainPoint   uint64 = 0x706F696E74 // "point"
	domainSeries  uint64 = 0x7365726965 // "serie"
	domainStage   uint64 = 0x7374616765 // "stage"
	domainContent uint64 = 0x636F6E7465 // "conte"
)

// ForPoint derives the seed of one sweep point from the sweep's root seed
// and the swept parameter value. Using the value (not the point index)
// makes the seed independent of how the sweep grid is ordered or refined:
// re-running a single value reproduces exactly the point from the full
// sweep. The value is identified by its IEEE-754 bit pattern, so 0.0 and
// -0.0 count as different labels.
func ForPoint(root int64, value float64) int64 {
	return Derive(root, domainPoint, math.Float64bits(value))
}

// ForSeries derives a per-series root from an experiment seed and a series
// label index (e.g. the rate of one waterfall curve), so curves sharing a
// figure draw independent noise.
func ForSeries(root int64, label uint64) int64 {
	return Derive(root, domainSeries, label)
}

// ForStage derives the seed of one pipeline stage of one packet. Seeding each
// stage of each packet independently (instead of advancing one sequential
// stream through the whole chain) makes a stage's realization a pure function
// of (root, stage, packet): a cached stage output computed by whichever sweep
// point gets there first is bit-identical to what any other point would have
// computed, regardless of execution order or of which stages ran before it.
func ForStage(root int64, stage int, packet int) int64 {
	return Derive(root, domainStage, uint64(stage), uint64(packet))
}

// ContentKey folds an ordered sequence of labels describing simulation
// content (configuration fields, stage identity, packet index) into a stable
// 64-bit key for content-addressed caching. It lives in the same SplitMix64
// hierarchy as the seeds but under its own domain, so keys never collide with
// seed values. Callers must label invariant configuration only — never the
// swept parameter's float bits — so one sweep's points agree on the key of
// shared work.
func ContentKey(root int64, labels ...uint64) uint64 {
	return uint64(Derive(root, append([]uint64{domainContent}, labels...)...))
}
