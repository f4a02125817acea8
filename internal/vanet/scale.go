package vanet

import (
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/telemetry"
	"github.com/vanetsec/georoute/internal/traffic"
)

// SegmentIDStride separates the vehicle-ID spaces of consecutive road
// segments in a scale world: segment i > 0 hands out IDs starting at
// i*SegmentIDStride, segment 0 at 1. Four million IDs per segment keeps addresses
// unique for any population this simulator can hold in memory.
const SegmentIDStride = 1 << 22

// ScaleConfig parameterizes NewScaleWorld: a world made of several
// RF-isolated copies of the same road segment sharing one engine, one
// radio medium and one PKI. The shape exists to push the event engine to
// six-figure vehicle counts while the per-node workload (neighbor tables,
// CBF contention) stays at the paper's highway density.
type ScaleConfig struct {
	Seed uint64

	Tech       radio.Technology
	RangeClass radio.RangeClass

	// Segments is the number of road copies (default 4).
	Segments int
	// SegmentRoad is the per-segment geometry; OriginX is computed, the
	// rest defaults as in traffic.NewRoad. The default is one-way: two
	// eastbound lanes.
	SegmentRoad traffic.RoadConfig
	// SegmentGap is the RF-isolation spacing between consecutive segments
	// (default 2000 m — far beyond any Table II range, so segments never
	// hear each other and total neighbor degree stays bounded).
	SegmentGap float64
	// SpawnGap is the prepopulation spacing (default 100 m, a sparse
	// highway: ~20 vehicles per kilometre of lane).
	SpawnGap float64

	Telemetry *telemetry.RunGauges
}

// NewScaleWorld assembles the multi-segment world, fully prepopulated with
// running router stacks. Spawning is disabled — the population is fixed,
// which keeps benchmark iterations comparable.
func NewScaleWorld(cfg ScaleConfig) *World {
	if cfg.Segments == 0 {
		cfg.Segments = 4
	}
	if cfg.SegmentGap == 0 {
		cfg.SegmentGap = 2000
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
		road.OriginX = float64(g) * (road.Length + cfg.SegmentGap)
		return road
	}
	w := New(Config{
		Seed:          cfg.Seed,
		Tech:          cfg.Tech,
		RangeClass:    cfg.RangeClass,
		Road:          segmentRoad(0),
		SpawnGap:      cfg.SpawnGap,
		Prepopulate:   true,
		SpawnDisabled: true,
		Telemetry:     cfg.Telemetry,
	})
	for g := 1; g < cfg.Segments; g++ {
		w.AddSegment(SegmentConfig{
			Road:          segmentRoad(g),
			SpawnGap:      cfg.SpawnGap,
			Prepopulate:   true,
			SpawnDisabled: true,
			FirstID:       g * SegmentIDStride,
		})
	}
	return w
}

// SpawnColumn bulk-adds a column of vehicles to a lane — count vehicles
// gap metres apart, the first at travel coordinate sFront, extending
// backwards — and attaches their router stacks through the network's
// enter hook. The batch insert takes the traffic layer's O(count) path.
// Returns the vehicles leader-first.
func SpawnColumn(n *traffic.Network, lane *traffic.Lane, sFront, gap float64, count int, speed float64) []*traffic.Vehicle {
	ss := make([]float64, count)
	for i := range ss {
		ss[i] = sFront - float64(i)*gap
	}
	return n.BulkAdd(lane, ss, speed)
}
