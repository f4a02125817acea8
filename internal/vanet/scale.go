package vanet

import "github.com/vanetsec/georoute/internal/traffic"

// SegmentIDStride separates the vehicle-ID spaces of consecutive road
// segments in a scale world: segment i > 0 hands out IDs starting at
// i*SegmentIDStride, segment 0 at 1. Four million IDs per segment keeps addresses
// unique for any population this simulator can hold in memory.
const SegmentIDStride = 1 << 22

// segmentGap is the RF-isolation spacing between consecutive segments of
// a scale world: far beyond any Table II range, so segments never hear
// each other and total neighbor degree stays bounded.
const segmentGap = 2000.0

// ScaleConfig parameterizes NewScaleWorld: a world made of several
// RF-isolated copies of the same road segment sharing one engine, one
// radio medium and one PKI. The shape exists to push the event engine to
// six-figure vehicle counts while the per-node workload (neighbor tables,
// CBF contention) stays at the paper's highway density. Vehicles use the
// default DSRC NLoS-median range.
type ScaleConfig struct {
	Seed uint64

	// Segments is the number of road copies (default 4).
	Segments int
	// SegmentRoad is the per-segment geometry; OriginX is computed, the
	// rest defaults as in traffic.NewRoad. The default is one-way: two
	// eastbound lanes.
	SegmentRoad traffic.RoadConfig
	// SpawnGap is the prepopulation spacing (default 100 m, a sparse
	// highway: ~20 vehicles per kilometre of lane).
	SpawnGap float64
}

// NewScaleWorld assembles the multi-segment world, fully prepopulated with
// running router stacks. Spawning is disabled — the population is fixed,
// which keeps benchmark iterations comparable.
func NewScaleWorld(cfg ScaleConfig) *World {
	if cfg.Segments == 0 {
		cfg.Segments = 4
	}
	if cfg.SpawnGap == 0 {
		cfg.SpawnGap = 100
	}
	if cfg.SegmentRoad.Length == 0 {
		cfg.SegmentRoad.Length = 4000
	}
	if cfg.SegmentRoad.LanesPerDirection == 0 {
		cfg.SegmentRoad.LanesPerDirection = 2
	}
	segmentRoad := func(g int) traffic.RoadConfig {
		road := cfg.SegmentRoad
		road.OriginX = float64(g) * (road.Length + segmentGap)
		return road
	}
	w := New(Config{
		Seed:          cfg.Seed,
		Road:          segmentRoad(0),
		SpawnGap:      cfg.SpawnGap,
		Prepopulate:   true,
		SpawnDisabled: true,
	})
	for g := 1; g < cfg.Segments; g++ {
		w.addSegment(segmentRoad(g), cfg.SpawnGap, g*SegmentIDStride)
	}
	return w
}
