package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"wlansim/internal/measure"
	"wlansim/internal/service"
)

// digestPoints folds every field of every point — the Float64bits of X, Y
// and the CI bounds, then the bit and error counts — into one FNV-1a hash.
// Two outputs agree exactly when their digests do (up to hash collisions).
func digestPoints(pts []measure.Point) uint64 {
	h := fnv.New64a()
	var b [48]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(p.CILo))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(p.CIHi))
		binary.LittleEndian.PutUint64(b[32:], uint64(p.Bits))
		binary.LittleEndian.PutUint64(b[40:], uint64(p.Errors))
		h.Write(b[:])
	}
	return h.Sum64()
}

// foldDigests folds a list of digests into one.
func foldDigests(ds []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint64(b[:], d)
		h.Write(b[:])
	}
	return h.Sum64()
}

// samePoint reports whether two points are bit-identical.
func samePoint(a, b measure.Point) bool {
	return digestPoints([]measure.Point{a}) == digestPoints([]measure.Point{b})
}

// goldenFile is the recorded digest of each workload's output per seed,
// for the simulation-physics generation named by CodeVersion.
type goldenFile struct {
	CodeVersion string                       `json:"code_version"`
	Digests     map[string]map[string]string `json:"digests"`
}

//go:embed golden.json
var goldenJSON []byte

// golden returns the recorded digest of a workload's output for a seed. It
// reports false when the seed was not recorded or the recording belongs to
// another physics generation (service.CodeVersion changed, which any change
// to simulated results must do); the run then checks its output against
// the reference path alone.
func golden(workload string, seed int64) (uint64, bool) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil || g.CodeVersion != service.CodeVersion {
		return 0, false
	}
	s, ok := g.Digests[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	return v, err == nil
}

// checkGolden compares the reference path's digest with the recorded one:
// recorded reports whether the seed has a recording for the current physics
// generation, mismatch whether the reference disagrees with it.
func checkGolden(workload string, seed int64, ref uint64) (recorded, mismatch bool) {
	g, ok := golden(workload, seed)
	return ok, ok && g != ref
}

// goldenDigests computes the golden digest of each workload for one seed.
var goldenDigests = map[string]func(seed int64) (uint64, error){
	"fig5_filter_sweep":     fig5Golden,
	"snr_waterfall_batched": snrGolden,
	"table2_cosim":          table2Golden,
	"service_mixed":         serviceGolden,
}

// recordGoldens recomputes the digests for the seed range "lo-hi" and
// rewrites golden.json in the current directory.
func recordGoldens(span string, log io.Writer) error {
	loS, hiS, ok := strings.Cut(span, "-")
	lo, err1 := strconv.ParseInt(loS, 10, 64)
	hi, err2 := strconv.ParseInt(hiS, 10, 64)
	if !ok || err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("seed range %q, want lo-hi", span)
	}
	g := goldenFile{CodeVersion: service.CodeVersion, Digests: map[string]map[string]string{}}
	for _, w := range workloads {
		g.Digests[w.name] = map[string]string{}
		for s := lo; s <= hi; s++ {
			d, err := goldenDigests[w.name](s)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			g.Digests[w.name][strconv.FormatInt(s, 10)] = fmt.Sprintf("%016x", d)
		}
		fmt.Fprintf(log, "recorded %s seeds %d-%d\n", w.name, lo, hi)
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", append(b, '\n'), 0o644)
}
