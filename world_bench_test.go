// Engine-scale end-to-end benchmarks: full protocol worlds (IDM traffic,
// beaconing routers, radio fan-out) at 1k/10k/100k vehicles on the
// timing-wheel engine. DESIGN.md ("Event engine") records what they
// measured when the wheel replaced the binary heap. Run with:
//
//	go test -bench 'BenchmarkWorld' -benchtime 1x -benchmem -timeout 60m .
package georoute_test

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/traffic"
	"github.com/vanetsec/georoute/internal/vanet"
)

// benchScaleWorld builds a multi-segment world of ~total vehicles (500 per
// lane, two one-way lanes per segment, 100 m spacing) and runs 5 simulated
// seconds of full protocol activity. Per-iteration events/s covers the Run
// phase only; world assembly is excluded from the timer.
func benchScaleWorld(b *testing.B, total int) {
	const (
		perLane  = 500
		spawnGap = 100.0
	)
	segments := total / (2 * perLane)
	if segments == 0 {
		segments = 1
	}
	segLen := spawnGap * float64(perLane-1)
	var events uint64
	var vehicles int
	var runWall time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := vanet.NewScaleWorld(vanet.ScaleConfig{
			Seed:        uint64(i + 1),
			Segments:    segments,
			SegmentRoad: traffic.RoadConfig{Length: segLen, LanesPerDirection: 2},
			SpawnGap:    spawnGap,
		})
		vehicles = w.VehicleCount()
		b.StartTimer()
		start := time.Now()
		w.Run(5 * time.Second)
		runWall += time.Since(start)
		events += w.Engine.Executed()
	}
	b.ReportMetric(float64(events)/runWall.Seconds(), "events/s")
	b.ReportMetric(float64(vehicles), "vehicles")
}

func BenchmarkWorld1k(b *testing.B)   { benchScaleWorld(b, 1_000) }
func BenchmarkWorld10k(b *testing.B)  { benchScaleWorld(b, 10_000) }
func BenchmarkWorld100k(b *testing.B) { benchScaleWorld(b, 100_000) }
