package vanet

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/telemetry"
	"github.com/vanetsec/georoute/internal/traffic"
)

func tinyScaleConfig() ScaleConfig {
	return ScaleConfig{
		Seed:        7,
		Segments:    3,
		SegmentRoad: traffic.RoadConfig{Length: 1000, LanesPerDirection: 1},
		SpawnGap:    100,
	}
}

func tinyScale() *World { return NewScaleWorld(tinyScaleConfig()) }

func TestScaleWorldAssembly(t *testing.T) {
	w := tinyScale()
	if len(w.Segments()) != 3 {
		t.Fatalf("segments = %d, want 3", len(w.Segments()))
	}
	perSeg := w.Traffic.Count()
	if perSeg == 0 {
		t.Fatal("primary segment empty")
	}
	if got := w.VehicleCount(); got != 3*perSeg {
		t.Fatalf("VehicleCount = %d, want %d", got, 3*perSeg)
	}
	seen := make(map[int]bool)
	for _, v := range w.AppendVehicles(nil) {
		if seen[v.ID] {
			t.Fatalf("duplicate vehicle ID %d across segments", v.ID)
		}
		seen[v.ID] = true
		if w.RouterOf(v) == nil {
			t.Fatalf("vehicle %d has no router", v.ID)
		}
		if !w.Medium.Attached(radio.NodeID(AddrOf(v))) {
			t.Fatalf("vehicle %d not on the medium", v.ID)
		}
	}
	// Segment ID striding.
	if w.Segments()[1].Vehicles()[0].ID != SegmentIDStride {
		t.Fatal("segment 1 IDs not strided")
	}
}

func TestScaleWorldSegmentsAreRFIsolated(t *testing.T) {
	w := tinyScale()
	w.Run(5 * time.Second)
	// A router in segment 0 must only ever hear segment-0 neighbors: the
	// 2000 m inter-segment gap is far beyond any configured radio range.
	for _, v := range w.Traffic.Vehicles() {
		r := w.RouterOf(v)
		if r == nil {
			continue
		}
		for _, e := range r.LocT().AppendNeighbors(nil, w.Engine.Now()) {
			if e.PV.Addr >= VehicleAddrBase+SegmentIDStride {
				t.Fatalf("segment-0 vehicle %d learned cross-segment address %d", v.ID, e.PV.Addr)
			}
		}
		if r.Stats().BeaconsReceived == 0 {
			t.Fatalf("vehicle %d heard no beacons: in-segment radio broken", v.ID)
		}
	}
}

func TestScaleWorldBulkChurn(t *testing.T) {
	w := tinyScale()
	w.Run(2 * time.Second)
	before := w.VehicleCount()

	// Bulk-spawn a fresh column behind the rear of segment 1's lane, then
	// bulk-despawn it; the router population must track exactly.
	seg := w.Segments()[1]
	lane := seg.Road().Lanes[0]
	vs := lane.Vehicles()
	front := vs[len(vs)-1].S - 50
	col := seg.BulkAdd(lane, []float64{front, front - 25, front - 50, front - 75}, 30)
	if w.VehicleCount() != before+4 {
		t.Fatalf("count after spawn = %d, want %d", w.VehicleCount(), before+4)
	}
	for _, v := range col {
		if w.RouterOf(v) == nil {
			t.Fatalf("spawned vehicle %d has no router", v.ID)
		}
	}
	w.Run(4 * time.Second)

	// Lane leaders may exit naturally during the run; compare against the
	// population right before the bulk despawn.
	mid := w.VehicleCount()
	seg.DespawnBulk(col)
	if w.VehicleCount() != mid-4 {
		t.Fatalf("count after despawn = %d, want %d", w.VehicleCount(), mid-4)
	}
	for _, v := range col {
		if w.RouterOf(v) != nil {
			t.Fatalf("despawned vehicle %d still has a router", v.ID)
		}
		if w.Medium.Attached(radio.NodeID(AddrOf(v))) {
			t.Fatalf("despawned vehicle %d still on the medium", v.ID)
		}
	}
	// The world keeps running cleanly after the churn.
	w.Run(8 * time.Second)
}

// summaryJSON is the StatsSummary encoding the benchmark's world_scale
// workload digests.
func summaryJSON(t *testing.T, w *World) string {
	t.Helper()
	b, err := json.Marshal(w.StatsSummary())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestScaleWorldStatsSummary pins the StatsSummary artifact of a
// sequential scale world: it does not depend on how Run is sliced or on
// telemetry sampling, and its per-segment breakdown keeps the counters
// of routers that left the world.
func TestScaleWorldStatsSummary(t *testing.T) {
	whole := tinyScale()
	whole.Run(6 * time.Second)
	want := summaryJSON(t, whole)

	t.Run("sliced run", func(t *testing.T) {
		// world_scale advances its world in 100 ms slices.
		w := tinyScale()
		w.Run(2 * time.Second)
		w.Run(6 * time.Second)
		if got := summaryJSON(t, w); got != want {
			t.Fatalf("Run(2s)+Run(6s) summary differs from Run(6s):\n got %s\nwant %s", got, want)
		}
	})

	t.Run("telemetry inert", func(t *testing.T) {
		cfg := tinyScaleConfig()
		cfg.Telemetry = telemetry.NewRunGauges(telemetry.NewRegistry(), 0)
		w := NewScaleWorld(cfg)
		w.Run(6 * time.Second)
		w.SampleTelemetry()
		if cfg.Telemetry.EventsTotal.Value() != w.Engine.Executed() {
			t.Fatalf("sampler published %d events, engine ran %d", cfg.Telemetry.EventsTotal.Value(), w.Engine.Executed())
		}
		if got := summaryJSON(t, w); got != want {
			t.Fatalf("telemetry changed the summary:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("churn keeps segment counters", func(t *testing.T) {
		w := tinyScale()
		w.Run(2 * time.Second)
		seg := w.Segments()[1]
		lane := seg.Road().Lanes[0]
		vs := lane.Vehicles()
		front := vs[len(vs)-1].S - 50
		col := seg.BulkAdd(lane, []float64{front, front - 25, front - 50, front - 75}, 30)
		// Past one full beacon interval, so every spawned router has
		// counters of its own to hand over.
		w.Run(2*time.Second + geonet.BeaconInterval + time.Second)
		for _, v := range col {
			if w.RouterOf(v).Stats().BeaconsSent == 0 {
				t.Fatalf("spawned vehicle %d sent no beacons", v.ID)
			}
		}

		before := w.StatsSummary()
		seg.DespawnBulk(col)
		after := w.StatsSummary()
		if len(after.Segments) != 3 {
			t.Fatalf("summary has %d segments, want 3", len(after.Segments))
		}
		for i := range after.Segments {
			if after.Segments[i] != before.Segments[i] {
				t.Fatalf("segment %d counters moved on despawn:\n got %+v\nwant %+v", i, after.Segments[i], before.Segments[i])
			}
		}
		if after.Vehicles != before.Vehicles-len(col) {
			t.Fatalf("vehicles = %d after despawn, want %d", after.Vehicles, before.Vehicles-len(col))
		}

		w.Run(10 * time.Second)
		s := w.StatsSummary()
		var sum geonet.Stats
		for _, seg := range s.Segments {
			sum.Add(seg.Protocol)
		}
		if sum != s.Protocol {
			t.Fatalf("segments sum to %+v, summary Protocol is %+v", sum, s.Protocol)
		}
		if ps := w.ProtocolStats(); sum != ps {
			t.Fatalf("segments sum to %+v, ProtocolStats is %+v", sum, ps)
		}
	})
}
