package traffic

import (
	"math"
	"testing"

	"github.com/vanetsec/georoute/internal/sim"
)

func TestOriginXGeometry(t *testing.T) {
	r := NewRoad(RoadConfig{Length: 1000, OriginX: 5000, TwoWay: true})
	east := r.LanesOf(East)[0]
	west := r.LanesOf(West)[0]

	if got := east.PointAt(100).X; got != 5100 {
		t.Fatalf("east PointAt(100).X = %v, want 5100", got)
	}
	if got := west.PointAt(100).X; got != 5900 {
		t.Fatalf("west PointAt(100).X = %v, want 5900", got)
	}
	for _, l := range []*Lane{east, west} {
		for _, s := range []float64{0, 123.5, 1000} {
			if got := l.SOf(l.PointAt(s).X); math.Abs(got-s) > 1e-9 {
				t.Fatalf("%v lane: SOf(PointAt(%v)) = %v", l.Dir, s, got)
			}
		}
	}
}

func TestFirstIDStridesIDSpace(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng, NetworkConfig{Road: NewRoad(RoadConfig{Length: 100}), FirstID: 500, SpawnDisabled: true})
	v := n.AddVehicle(n.Road().Lanes[0], 50, 10)
	if v.ID != 500 {
		t.Fatalf("first vehicle ID = %d, want 500", v.ID)
	}
	if v2 := n.AddVehicle(n.Road().Lanes[0], 40, 10); v2.ID != 501 {
		t.Fatalf("second vehicle ID = %d, want 501", v2.ID)
	}
}

func TestBulkAddKeepsLeaderFirstOrder(t *testing.T) {
	eng := sim.NewEngine()
	var entered []int
	n := NewNetwork(eng, NetworkConfig{
		Road:          NewRoad(RoadConfig{Length: 1000}),
		SpawnDisabled: true,
		OnEnter:       func(v *Vehicle) { entered = append(entered, v.ID) },
	})
	lane := n.Road().Lanes[0]
	// Existing mid-lane population, then a batch that interleaves around it.
	n.AddVehicle(lane, 600, 10)
	vs := n.BulkAdd(lane, []float64{900, 500, 300}, 10)
	if len(vs) != 3 {
		t.Fatalf("BulkAdd returned %d vehicles", len(vs))
	}
	want := []float64{900, 600, 500, 300}
	got := lane.Vehicles()
	if len(got) != len(want) {
		t.Fatalf("lane holds %d vehicles, want %d", len(got), len(want))
	}
	for i, v := range got {
		if v.S != want[i] {
			t.Fatalf("lane[%d].S = %v, want %v (order broken)", i, v.S, want[i])
		}
	}
	if len(entered) != 4 {
		t.Fatalf("OnEnter fired %d times, want 4", len(entered))
	}
}

func TestPrepopulateLinearInsertions(t *testing.T) {
	// The tail fast path must keep prepopulation O(n): with 4 lanes of
	// 2000 vehicles each the old per-vehicle scan would do ~4M compares
	// and time out long before this test's deadline.
	eng := sim.NewEngine()
	n := NewNetwork(eng, NetworkConfig{
		Road:        NewRoad(RoadConfig{Length: 20000, LanesPerDirection: 2, TwoWay: true}),
		SpawnGap:    10,
		Prepopulate: true,
	})
	if n.Count() < 7900 {
		t.Fatalf("prepopulated only %d vehicles", n.Count())
	}
	for _, lane := range n.Road().Lanes {
		vs := lane.Vehicles()
		for i := 1; i < len(vs); i++ {
			if vs[i-1].S <= vs[i].S {
				t.Fatalf("lane %d not leader-first at %d: %v <= %v", lane.Index, i, vs[i-1].S, vs[i].S)
			}
		}
	}
}

func TestIntegrateCompactsExits(t *testing.T) {
	eng := sim.NewEngine()
	var exited []int
	n := NewNetwork(eng, NetworkConfig{
		Road:          NewRoad(RoadConfig{Length: 100}),
		SpawnDisabled: true,
		OnExit:        func(v *Vehicle) { exited = append(exited, v.ID) },
	})
	lane := n.Road().Lanes[0]
	vs := n.BulkAdd(lane, []float64{90, 80, 70, 10}, 30)
	// Push three vehicles past the exit line; the integration step must
	// remove all of them from the lane in one compaction pass.
	vs[0].S, vs[1].S, vs[2].S = 100.5, 100.3, 100.1
	n.Step(0.1)
	if len(exited) != 3 {
		t.Fatalf("%d exits, want 3", len(exited))
	}
	for i := 1; i < len(exited); i++ {
		if exited[i] <= exited[i-1] {
			t.Fatalf("exit order not leader-first: %v", exited)
		}
	}
	if n.Count() != 1 || len(lane.Vehicles()) != 1 {
		t.Fatalf("lane not compacted: count=%d lane=%d", n.Count(), len(lane.Vehicles()))
	}
}
