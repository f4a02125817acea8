package vanet

import (
	"cmp"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
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
	if len(w.segments) != 3 {
		t.Fatalf("segments = %d, want 3", len(w.segments))
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
	if w.segments[1].Vehicles()[0].ID != SegmentIDStride {
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

// spawnColumn bulk-adds four vehicles behind the rear of segment 1's
// lane, 25 m apart, so they leave the world by the segment end.
func spawnColumn(w *World) []*traffic.Vehicle {
	seg := w.segments[1]
	rear := slices.MinFunc(seg.Vehicles(), func(a, b *traffic.Vehicle) int { return cmp.Compare(a.S, b.S) })
	front := rear.S - 50
	return seg.BulkAdd(rear.Lane, []float64{front, front - 25, front - 50, front - 75}, 30)
}

func TestScaleWorldBulkChurn(t *testing.T) {
	w := tinyScale()
	w.Run(2 * time.Second)
	before := w.VehicleCount()

	// Bulk-spawn a fresh column, then run until every vehicle has left by
	// its segment end; the router population must track exactly.
	col := spawnColumn(w)
	if w.VehicleCount() != before+4 {
		t.Fatalf("count after spawn = %d, want %d", w.VehicleCount(), before+4)
	}
	for _, v := range col {
		if w.RouterOf(v) == nil {
			t.Fatalf("spawned vehicle %d has no router", v.ID)
		}
	}
	w.Run(90 * time.Second) // 1,000 m at up to 30 m/s
	if n := w.VehicleCount(); n != 0 {
		t.Fatalf("%d vehicles still on the road", n)
	}
	for _, v := range col {
		if w.RouterOf(v) != nil {
			t.Fatalf("departed vehicle %d still has a router", v.ID)
		}
		if w.Medium.Attached(radio.NodeID(AddrOf(v))) {
			t.Fatalf("departed vehicle %d still on the medium", v.ID)
		}
	}
	if len(w.routers) != 0 {
		t.Fatalf("%d routers left after every vehicle departed", len(w.routers))
	}
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
// sequential scale world: it does not depend on how Run is sliced, and
// its per-segment breakdown keeps the counters of routers that left the
// world.
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

	t.Run("churn keeps segment counters", func(t *testing.T) {
		w := tinyScale()
		w.Run(2 * time.Second)
		col := spawnColumn(w)
		// Past one full beacon interval, so every spawned router has
		// counters of its own to hand over.
		w.Run(2*time.Second + geonet.BeaconInterval + time.Second)
		for _, v := range col {
			if w.RouterOf(v).Stats().BeaconsSent == 0 {
				t.Fatalf("spawned vehicle %d sent no beacons", v.ID)
			}
		}

		// Every vehicle leaves by its segment end. A detach moves the
		// departing router's counters into its segment's tally, so the
		// summary reads the same just before and just after it.
		exits := 0
		for _, seg := range w.segments {
			detach := seg.OnExit
			seg.OnExit = func(v *traffic.Vehicle) {
				before := w.StatsSummary()
				detach(v)
				after := w.StatsSummary()
				exits++
				if len(after.Segments) != 3 {
					t.Fatalf("summary has %d segments, want 3", len(after.Segments))
				}
				for i := range after.Segments {
					if after.Segments[i] != before.Segments[i] {
						t.Fatalf("segment %d counters moved when vehicle %d left:\n got %+v\nwant %+v", i, v.ID, after.Segments[i], before.Segments[i])
					}
				}
			}
		}
		vehicles := w.VehicleCount()
		w.Run(90 * time.Second)
		if w.VehicleCount() != 0 || exits != vehicles {
			t.Fatalf("%d vehicles left by the segment ends and %d remain, want %d and 0", exits, w.VehicleCount(), vehicles)
		}

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
