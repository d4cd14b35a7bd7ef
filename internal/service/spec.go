// Package service turns the in-process sweep harnesses into a multi-client
// job fabric: wlansimd accepts sweep specs over HTTP, validates and
// canonicalizes them, runs them on a bounded pool of job workers (each job
// one core sweep harness, its points in lane groups on sim.Sweep), streams
// completed prefixes back, and persists finished points in a
// content-addressed store (internal/service/store) so no point any prior
// run produced is ever recomputed.
//
// Determinism is the load-bearing property: a served series must be
// byte-identical (Float64bits) to the same spec executed in-process. Every
// spec is normalized to a canonical form before anything is derived from it,
// each point's store key folds the canonical spec, the point value's bit
// pattern, the seed root, the code version and the kernel dispatch tier
// through seed.ContentKey, and the underlying sweeps seed every point from
// (seed root, value) alone — so cached, freshly computed and in-process
// points are interchangeable bit for bit.
package service

import (
	"fmt"
	"hash/fnv"
	"math"

	"wlansim/internal/core"
	"wlansim/internal/kernels"
	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/seed"
	"wlansim/internal/sim"
)

// CodeVersion tags the simulation-physics generation whose outputs the
// result store may serve interchangeably. It is folded into every point's
// store key; bump it in any PR that changes simulated results (the golden
// BER gate failing is the signal), which atomically invalidates stale
// stores instead of serving points the current code would not reproduce.
const CodeVersion = "wlansim-phys-v9"

// MaxPoints bounds one job's sweep grid; a spec beyond it is rejected at
// submission rather than occupying a worker for hours.
const MaxPoints = 4096

// MaxPackets bounds the per-point Monte-Carlo depth of a submitted job.
const MaxPackets = 100000

// SweepSpec describes one sweep job in canonical, content-hashable form.
// Fields left zero take kind-specific defaults (Canonicalize fills them);
// the canonical form is what keys the result store, so two ways of writing
// the same sweep share their points. Workers and store/cache sizing are
// deliberately absent: they change wall-clock, never results, and belong to
// the daemon, not the job identity. So is the lane grouping, which the
// harnesses derive from the front end and the worker count alone.
type SweepSpec struct {
	// Kind selects the sweep family: "fig5" (BER vs channel-filter edge,
	// adjacent channel present), "fig6" (BER vs LNA compression point),
	// "ip3" (BER vs LNA IIP3), "evm" (EVM vs SNR, ideal receiver), or
	// "snr" (BER vs channel SNR at one rate).
	Kind string `json:"kind"`
	// RateMbps is the wanted link's data rate (kind default if zero).
	RateMbps int `json:"rate_mbps,omitempty"`
	// PSDULen is the payload length per packet in octets.
	PSDULen int `json:"psdu_len,omitempty"`
	// Packets is the Monte-Carlo depth per point.
	Packets int `json:"packets,omitempty"`
	// Seed is the root seed every point derives its randomness from.
	Seed int64 `json:"seed,omitempty"`
	// PowerDBm is the wanted signal's received power (kind default if
	// zero; 0 dBm itself is far outside the paper's -88..-23 dBm range).
	PowerDBm float64 `json:"power_dbm,omitempty"`
	// TargetErrors, when > 0, early-stops each point after that many bit
	// errors (Wilson-CI accounting in the point annotations).
	TargetErrors int `json:"target_errors,omitempty"`
	// Adjacent adds the +16 dB adjacent channel (fig6 and ip3 kinds).
	Adjacent bool `json:"adjacent,omitempty"`
	// FrontEnd selects the analog abstraction for the snr kind:
	// "ideal" (default) or "behavioral".
	FrontEnd string `json:"front_end,omitempty"`
	// From, To and Points define a linear grid of swept values when Values
	// is empty.
	From   float64 `json:"from,omitempty"`
	To     float64 `json:"to,omitempty"`
	Points int     `json:"points,omitempty"`
	// Values is the explicit grid of swept values, strictly increasing.
	// Canonicalize materializes From/To/Points into it.
	Values []float64 `json:"values,omitempty"`
}

// SpecError marks a submission-time validation failure (HTTP 400).
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return "service: " + e.msg }

func specErrorf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// runParams carries the daemon-side execution knobs (never part of the job
// identity) plus the completed-point hook into a kind's sweep harness.
type runParams struct {
	workers int
	onPoint func(measure.Point)
}

// kindDef describes one sweep family: identity label, spec defaults, the
// served-series axis labels, the figure-axis transform applied to X after
// the sweep, and the harness invocation.
type kindDef struct {
	id       uint64
	defaults SweepSpec
	// adjacent and frontEnd whitelist the optional spec fields this kind
	// interprets; setting one on another kind is a validation error, not
	// silently ignored — ignored fields would still be folded into the
	// store key and split identical sweeps across distinct entries.
	adjacent bool
	frontEnd bool
	labels   func(spec SweepSpec) (name, xLabel, yLabel string)
	postX    func(x float64) float64
	run      func(spec SweepSpec, values []float64, rp runParams) (*measure.Series, error)
}

// applySpec overlays the canonical spec's scenario fields onto a kind's
// base config and attaches the daemon execution knobs.
func applySpec(base *core.Config, spec SweepSpec, rp runParams) {
	base.RateMbps = spec.RateMbps
	base.PSDULen = spec.PSDULen
	base.Packets = spec.Packets
	base.Seed = spec.Seed
	base.WantedPowerDBm = spec.PowerDBm
	base.TargetErrors = spec.TargetErrors
	base.Workers = rp.workers
	base.OnSweepPoint = rp.onPoint
}

var kinds = map[string]*kindDef{
	"fig5": {
		id:       1,
		defaults: SweepSpec{RateMbps: 48, PSDULen: 100, Packets: 8, Seed: 1, PowerDBm: -70, From: 6e6, To: 16e6, Points: 6},
		labels: func(SweepSpec) (string, string, string) {
			return "BER vs filter bandwidth", "passband edge frequency (1.0e8 Hz)", "bit error rate"
		},
		postX: func(x float64) float64 { return x / 1e8 },
		run: func(spec SweepSpec, values []float64, rp runParams) (*measure.Series, error) {
			base := core.Figure5Config()
			applySpec(&base, spec, rp)
			// Figure5Config derives the adjacent channel from its default
			// power; re-derive from the spec's so a power override moves
			// the interferer with it.
			base.Interferers = []core.InterfererSpec{core.AdjacentChannelSpec(base.WantedPowerDBm)}
			return core.FilterBandwidthSweep(base, values)
		},
	},
	"fig6": {
		id:       2,
		defaults: SweepSpec{RateMbps: 24, PSDULen: 100, Packets: 8, Seed: 1, PowerDBm: -40, From: -30, To: -5, Points: 6},
		adjacent: true,
		labels: func(spec SweepSpec) (string, string, string) {
			name := "non adjacent channel"
			if spec.Adjacent {
				name = "adjacent channel"
			}
			return name, "compression point of LNA1 (dBm)", "bit error rate"
		},
		postX: func(x float64) float64 { return x },
		run: func(spec SweepSpec, values []float64, rp runParams) (*measure.Series, error) {
			base := core.Figure6Config()
			applySpec(&base, spec, rp)
			return core.CompressionPointSweep(base, values, spec.Adjacent)
		},
	},
	"ip3": {
		id:       3,
		defaults: SweepSpec{RateMbps: 24, PSDULen: 100, Packets: 8, Seed: 1, PowerDBm: -40, From: -20, To: 5, Points: 6},
		adjacent: true,
		labels: func(SweepSpec) (string, string, string) {
			return "BER vs LNA IIP3", "IIP3 of LNA1 (dBm)", "bit error rate"
		},
		postX: func(x float64) float64 { return x },
		run: func(spec SweepSpec, values []float64, rp runParams) (*measure.Series, error) {
			base := core.Figure6Config()
			applySpec(&base, spec, rp)
			return core.IP3Sweep(base, values, spec.Adjacent)
		},
	},
	"evm": {
		id:       4,
		defaults: SweepSpec{RateMbps: 24, PSDULen: 100, Packets: 10, Seed: 1, PowerDBm: -62, From: 10, To: 35, Points: 6},
		labels: func(SweepSpec) (string, string, string) {
			return "EVM vs SNR (ideal receiver)", "channel SNR (dB)", "EVM (%)"
		},
		postX: func(x float64) float64 { return x },
		run: func(spec SweepSpec, values []float64, rp runParams) (*measure.Series, error) {
			base := core.DefaultConfig()
			applySpec(&base, spec, rp)
			return core.EVMvsSNR(base, values)
		},
	},
	"snr": {
		id:       5,
		defaults: SweepSpec{RateMbps: 24, PSDULen: 100, Packets: 10, Seed: 1, PowerDBm: -62, FrontEnd: "ideal", From: 2, To: 30, Points: 8},
		frontEnd: true,
		labels: func(spec SweepSpec) (string, string, string) {
			return fmt.Sprintf("%d Mbps", spec.RateMbps), "channel SNR (dB)", "bit error rate"
		},
		postX: func(x float64) float64 { return x },
		run: func(spec SweepSpec, values []float64, rp runParams) (*measure.Series, error) {
			base := core.DefaultConfig()
			applySpec(&base, spec, rp)
			fe := core.FrontEndIdeal
			if spec.FrontEnd == "behavioral" {
				fe = core.FrontEndBehavioral
			}
			fig, err := core.WaterfallBERvsSNROnFrontEnd(base, fe, []int{spec.RateMbps}, values)
			if err != nil {
				return nil, err
			}
			return fig.Series[0], nil
		},
	},
}

// frontEndID maps the snr kind's front-end name to a key label.
var frontEndIDs = map[string]uint64{"": 0, "ideal": 1, "behavioral": 2}

// Canonicalize validates the spec and returns its canonical form: kind
// defaults filled in, the From/To/Points grid materialized into Values, and
// every field a point key is derived from pinned. Two submissions with the
// same canonical form are the same job content-wise.
func (s SweepSpec) Canonicalize() (SweepSpec, error) {
	kd, ok := kinds[s.Kind]
	if !ok {
		return s, specErrorf("unknown sweep kind %q (want fig5, fig6, ip3, evm or snr)", s.Kind)
	}
	if s.Adjacent && !kd.adjacent {
		return s, specErrorf("kind %q does not take the adjacent flag", s.Kind)
	}
	if s.FrontEnd != "" && !kd.frontEnd {
		return s, specErrorf("kind %q does not take a front end", s.Kind)
	}
	if _, ok := frontEndIDs[s.FrontEnd]; !ok {
		return s, specErrorf("unknown front end %q (want ideal or behavioral)", s.FrontEnd)
	}
	d := kd.defaults
	if s.RateMbps == 0 {
		s.RateMbps = d.RateMbps
	}
	if _, err := phy.ModeByRate(s.RateMbps); err != nil {
		return s, specErrorf("rate %d Mbps: not an 802.11a mode", s.RateMbps)
	}
	if s.PSDULen == 0 {
		s.PSDULen = d.PSDULen
	}
	if s.PSDULen < 1 || s.PSDULen > 4095 {
		return s, specErrorf("psdu_len %d outside 1..4095", s.PSDULen)
	}
	if s.Packets == 0 {
		s.Packets = d.Packets
	}
	if s.Packets < 1 || s.Packets > MaxPackets {
		return s, specErrorf("packets %d outside 1..%d", s.Packets, MaxPackets)
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if s.PowerDBm == 0 {
		s.PowerDBm = d.PowerDBm
	}
	if s.TargetErrors < 0 {
		return s, specErrorf("target_errors %d negative", s.TargetErrors)
	}
	if s.FrontEnd == "" && kd.frontEnd {
		s.FrontEnd = d.FrontEnd
	}
	if len(s.Values) == 0 {
		if s.Points == 0 {
			s.Points = d.Points
		}
		if s.Points < 1 || s.Points > MaxPoints {
			return s, specErrorf("points %d outside 1..%d", s.Points, MaxPoints)
		}
		// Only a fully absent range falls back to the kind default; a grid
		// starting (or ending) at zero states the other bound explicitly.
		if s.From == 0 && s.To == 0 {
			s.From, s.To = d.From, d.To
		}
		s.Values = sim.Linspace(s.From, s.To, s.Points)
	}
	// The grid is canonical once materialized; drop the constructor fields
	// so two spellings of one grid hash identically.
	s.From, s.To, s.Points = 0, 0, 0
	if len(s.Values) == 0 {
		return s, specErrorf("no sweep values")
	}
	if len(s.Values) > MaxPoints {
		return s, specErrorf("%d sweep values exceed the %d-point job bound", len(s.Values), MaxPoints)
	}
	for i := 1; i < len(s.Values); i++ {
		if !(s.Values[i] > s.Values[i-1]) {
			return s, specErrorf("values must be strictly increasing (values[%d]=%g, values[%d]=%g)",
				i-1, s.Values[i-1], i, s.Values[i])
		}
	}
	return s, nil
}

// fnv64 folds a string into a key label (FNV-1a).
func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// boolLabel encodes a flag as a key label.
func boolLabel(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PointKeys derives the content-addressed store key of every value of a
// canonical spec. The key is a seed.ContentKey fold — the same SplitMix64
// discipline as the stage cache — of the tuple (canonical spec, point value
// bits, seed root, code version, kernel dispatch tier). Everything that can
// change a point's bits is in; everything that only changes wall-clock
// (workers, lane grouping, caches) is out, so overlapping sweeps share
// points no matter how they are executed.
func PointKeys(spec SweepSpec) []uint64 {
	kd := kinds[spec.Kind]
	prefix := []uint64{
		kd.id,
		uint64(spec.RateMbps),
		uint64(spec.PSDULen),
		uint64(spec.Packets),
		uint64(spec.TargetErrors),
		math.Float64bits(spec.PowerDBm),
		boolLabel(spec.Adjacent),
		frontEndIDs[spec.FrontEnd],
		fnv64(CodeVersion),
		fnv64(kernels.DispatchName()),
	}
	keys := make([]uint64, len(spec.Values))
	labels := make([]uint64, len(prefix)+1)
	copy(labels, prefix)
	for i, v := range spec.Values {
		labels[len(prefix)] = math.Float64bits(v)
		keys[i] = seed.ContentKey(spec.Seed, labels...)
	}
	return keys
}

// Labels returns the served-series identity (curve label and axis labels)
// of a canonical spec, matching what the kind's in-process harness emits.
func (s SweepSpec) Labels() (name, xLabel, yLabel string) {
	return kinds[s.Kind].labels(s)
}

// PostX returns the figure-axis transform the kind applies to raw swept
// values (identity for all kinds except fig5's 1e8 Hz rescale).
func (s SweepSpec) PostX(x float64) float64 { return kinds[s.Kind].postX(x) }
