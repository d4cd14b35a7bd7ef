package core

import (
	"math"

	"wlansim/internal/seed"
	"wlansim/internal/sim"
)

// Stage enumerates the packet pipeline's composable stages in execution
// order. A sweep declares the first stage its swept parameter affects
// (Config.SweptStage); every stage strictly before it is invariant across
// the sweep's points, derives its randomness from Config.ContentSeed instead
// of the per-point Config.Seed, and is therefore shareable through the
// invariant-prefix stage cache.
type Stage int

// The pipeline stages and the configuration parameters each depends on (the
// dependency tags; see StageParams).
const (
	// StageTX synthesizes the wanted PPDU waveform.
	StageTX Stage = iota
	// StageChannel composes the antenna signal: interferer synthesis,
	// oversampled channel composition, multipath, sample-clock and carrier
	// frequency offsets.
	StageChannel
	// StageNoise draws the antenna AWGN requested by ChannelSNRdB.
	StageNoise
	// StageFrontEnd runs the analog front-end model.
	StageFrontEnd
	// StageRxDSP synchronizes, equalizes, decodes and counts.
	StageRxDSP
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageTX:
		return "tx"
	case StageChannel:
		return "channel"
	case StageNoise:
		return "noise"
	case StageFrontEnd:
		return "frontend"
	case StageRxDSP:
		return "rxdsp"
	default:
		return "?"
	}
}

// StageParams declares which Config parameters each stage depends on — the
// dependency tags behind SweptStage. A sweep over a parameter tagged at
// stage k sets SweptStage=k and may then share stages < k across its points.
// TestStageParamsCoverConfig pins this table against the Config struct so a
// new field cannot silently join the cached prefix.
var StageParams = map[Stage][]string{
	StageTX:       {"RateMbps", "PSDULen", "Seed", "ContentSeed"},
	StageChannel:  {"WantedPowerDBm", "CFOHz", "MultipathTaps", "MultipathRMSSamples", "DopplerHz", "SampleClockPPM", "Interferers"},
	StageNoise:    {"ChannelSNRdB"},
	StageFrontEnd: {"FrontEnd", "TuneRF", "TuneCoSim", "SweptFrontEndFilterOnly"},
	StageRxDSP:    {"UseIdealRxTiming", "HardDecisions", "DisableCSI", "Packets", "TargetErrors", "Workers", "Batch", "Cache", "CacheBytes", "DisableStageCache", "SweptStage", "OnSweepPoint"},
}

// stageRoot returns the seed root a stage derives its randomness from:
// ContentSeed for stages strictly before the swept stage (so every sweep
// point sees the same realization, whichever point computes it first), the
// per-point Seed otherwise.
func (b *Bench) stageRoot(s Stage) int64 {
	if s < b.cfg.SweptStage && b.cfg.ContentSeed != 0 {
		return b.cfg.ContentSeed
	}
	return b.cfg.Seed
}

// contentRoot is the root that keys cached content. Falls back to Seed so a
// cacheless Bench still has well-defined stage seeds.
func (b *Bench) contentRoot() int64 {
	if b.cfg.ContentSeed != 0 {
		return b.cfg.ContentSeed
	}
	return b.cfg.Seed
}

// cacheKind labels what pipeline prefix a cache entry holds.
const (
	cacheKindAntenna   uint8 = 1 // composite antenna waveform (stages < min(SweptStage, StageFrontEnd))
	cacheKindPreFilter uint8 = 2 // behavioral front-end output upstream of the channel-select filter (SweptFrontEndFilterOnly sweeps)
)

// stageKey builds the content-addressed cache key for one packet's cached
// prefix. Every invariant configuration field the prefix depends on is folded
// in — and never the swept parameter or the per-point Seed, which is exactly
// what lets the points of one sweep agree on the key.
func (b *Bench) stageKey(kind uint8, p, os int, withNoise bool) sim.CacheKey {
	if b.keyContent == 0 {
		labels := []uint64{
			uint64(kind),
			uint64(b.cfg.RateMbps),
			uint64(b.cfg.PSDULen),
			uint64(os),
			math.Float64bits(b.cfg.WantedPowerDBm),
			math.Float64bits(b.cfg.CFOHz),
			uint64(b.cfg.MultipathTaps),
			math.Float64bits(b.cfg.MultipathRMSSamples),
			math.Float64bits(b.cfg.DopplerHz),
			math.Float64bits(b.cfg.SampleClockPPM),
			uint64(len(b.cfg.Interferers)),
		}
		for _, spec := range b.cfg.Interferers {
			labels = append(labels,
				math.Float64bits(spec.OffsetHz),
				math.Float64bits(spec.PowerDBm),
				uint64(spec.RateMbps))
		}
		if withNoise && b.cfg.ChannelSNRdB != nil {
			labels = append(labels, 1, math.Float64bits(*b.cfg.ChannelSNRdB))
		} else {
			labels = append(labels, 0, 0)
		}
		b.keyContent = seed.ContentKey(b.contentRoot(), labels...)
	}
	return sim.CacheKey{Kind: kind, Packet: p, Content: b.keyContent}
}

// stageEntry is the payload of one cached prefix: the packet's reference
// payload bits (for error counting) and the waveform at the prefix boundary.
// Both are shared across sweep points; wave is copied on read before any
// mutation (noise addition, front-end processing), refBits is read-only by
// contract.
type stageEntry struct {
	refBits []byte
	wave    []complex128
}

// sizeBytes reports the entry's payload size for the cache's byte budget.
func (e *stageEntry) sizeBytes() int64 {
	return int64(len(e.refBits)) + int64(len(e.wave)*16)
}
