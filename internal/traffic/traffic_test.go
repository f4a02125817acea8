package traffic

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"github.com/vanetsec/georoute/internal/sim"
)

func TestIDMFreeRoadAcceleratesTowardDesired(t *testing.T) {
	p := DefaultIDM()
	inf := math.Inf(1)
	if a := p.Accel(0, inf, 0); !almostEqual(a, p.MaxAccel, 1e-9) {
		t.Errorf("standing start accel = %v, want %v", a, p.MaxAccel)
	}
	if a := p.Accel(p.DesiredSpeed, inf, 0); !almostEqual(a, 0, 1e-9) {
		t.Errorf("at desired speed accel = %v, want 0", a)
	}
	if a := p.Accel(p.DesiredSpeed*1.1, inf, 0); a >= 0 {
		t.Errorf("above desired speed accel = %v, want < 0", a)
	}
}

func TestIDMBrakesWhenClosing(t *testing.T) {
	p := DefaultIDM()
	// Closing fast on a stopped leader 20 m ahead at 30 m/s: hard braking.
	if a := p.Accel(30, 20, 0); a >= -p.ComfortDecel {
		t.Errorf("closing accel = %v, want strong braking", a)
	}
	// Same speed, equilibrium-ish gap: mild response.
	eq := p.MinGap + 30*p.TimeHeadway
	if a := p.Accel(30, eq, 30); math.Abs(a) > 1.0 {
		t.Errorf("equilibrium accel = %v, want near 0", a)
	}
}

func TestIDMTinyGapDoesNotExplode(t *testing.T) {
	p := DefaultIDM()
	a := p.Accel(10, 0, 0)
	if math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatalf("zero gap produced %v", a)
	}
	if a >= 0 {
		t.Fatalf("zero gap accel = %v, want braking", a)
	}
}

func TestIDMMonotoneInGapProperty(t *testing.T) {
	// Property: with everything else fixed, a larger gap never yields a
	// smaller acceleration.
	p := DefaultIDM()
	f := func(speedRaw, gapRaw uint8, extra uint8) bool {
		speed := float64(speedRaw % 40)
		gap := 1 + float64(gapRaw)
		larger := gap + 1 + float64(extra)
		return p.Accel(speed, larger, 0) >= p.Accel(speed, gap, 0)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIDMAccelMatchesPow pins Accel's two squarings to the math.Pow form
// of (v/v0)^4 bit for bit, on free road where Accel is a·(1 - (v/v0)^4):
// over a dense sweep of speeds in [0, 2·v0], and around the speeds where
// (v/v0)^4 leaves the normal range and where it falls below 2^-53 and the
// free-road term becomes exactly 1.
func TestIDMAccelMatchesPow(t *testing.T) {
	p := DefaultIDM()
	inf := math.Inf(1)
	check := func(speed float64) {
		t.Helper()
		got, want := p.Accel(speed, inf, 0), p.MaxAccel*(1-math.Pow(speed/p.DesiredSpeed, 4))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Accel(%v) on free road = %v, want math.Pow's %v", speed, got, want)
		}
	}
	const n = 1 << 18
	for i := 0; i <= n; i++ {
		check(2 * p.DesiredSpeed * float64(i) / n)
	}
	// (v/v0)^4 crosses 2^-1022, the smallest normal, near v/v0 = 2^-255.5,
	// and 2^-53 near v/v0 = 2^-13.25.
	for _, e := range []int{-256, -255, -14, -13} {
		for i := 0; i < 4096; i++ {
			check(p.DesiredSpeed * math.Ldexp(1+float64(i)/4096, e))
		}
	}
	for _, v := range []float64{5e-324, 1e-300, 1e-200, 1e-80} {
		check(v)
	}
}

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewRoadGeometry(t *testing.T) {
	r := NewRoad(RoadConfig{Length: 4000, LanesPerDirection: 2, TwoWay: true})
	if len(r.Lanes) != 4 {
		t.Fatalf("lanes = %d, want 4", len(r.Lanes))
	}
	east := r.LanesOf(East)
	west := r.LanesOf(West)
	if len(east) != 2 || len(west) != 2 {
		t.Fatalf("east %d west %d, want 2 each", len(east), len(west))
	}
	if east[0].Y != 2.5 || east[1].Y != 7.5 {
		t.Errorf("east lane Y = %v, %v, want 2.5, 7.5", east[0].Y, east[1].Y)
	}
	if west[0].Y != -2.5 || west[1].Y != -7.5 {
		t.Errorf("west lane Y = %v, %v, want -2.5, -7.5", west[0].Y, west[1].Y)
	}
}

func TestLaneCoordinateMapping(t *testing.T) {
	r := NewRoad(RoadConfig{Length: 1000, LanesPerDirection: 1, TwoWay: true})
	east := r.LanesOf(East)[0]
	west := r.LanesOf(West)[0]
	if p := east.PointAt(100); p.X != 100 {
		t.Errorf("east PointAt(100).X = %v, want 100", p.X)
	}
	if p := west.PointAt(100); p.X != 900 {
		t.Errorf("west PointAt(100).X = %v, want 900 (enters at far end)", p.X)
	}
	if s := west.SOf(900); s != 100 {
		t.Errorf("west SOf(900) = %v, want 100", s)
	}
	// Round trip property for both directions.
	for s := 0.0; s <= 1000; s += 111 {
		if got := east.SOf(east.PointAt(s).X); !almostEqual(got, s, 1e-9) {
			t.Errorf("east round trip %v -> %v", s, got)
		}
		if got := west.SOf(west.PointAt(s).X); !almostEqual(got, s, 1e-9) {
			t.Errorf("west round trip %v -> %v", s, got)
		}
	}
}

func TestSpawnerGapGating(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e, NetworkConfig{
		Road:     NewRoad(RoadConfig{Length: 1000, LanesPerDirection: 1}),
		SpawnGap: 30,
	})
	e.Run(10 * time.Second)
	// At 30 m/s and 30 m gaps, roughly one vehicle enters per second.
	if c := n.Count(); c < 8 || c > 12 {
		t.Fatalf("vehicles after 10s = %d, want ~10", c)
	}
	// Gaps stay near the 30 m spawn gap; IDM compresses them a little while
	// settling toward the 47 m equilibrium headway, never below ~25 m.
	lane := n.Road().LanesOf(East)[0]
	vs := lane.Vehicles()
	for i := 1; i < len(vs); i++ {
		gap := vs[i-1].S - vs[i].S
		if gap < 25 {
			t.Fatalf("gap %d = %v m, want >= ~25", i, gap)
		}
	}
}

func TestPrepopulateFillsRoad(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e, NetworkConfig{
		Road:        NewRoad(RoadConfig{Length: 900, LanesPerDirection: 1}),
		SpawnGap:    100,
		Prepopulate: true,
	})
	if c := n.Count(); c != 10 { // s = 900, 800, ..., 0
		t.Fatalf("prepopulated count = %d, want 10", c)
	}
	// Order in lane must be leader-first.
	lane := n.Road().LanesOf(East)[0]
	vs := lane.Vehicles()
	for i := 1; i < len(vs); i++ {
		if vs[i-1].S <= vs[i].S {
			t.Fatalf("lane ordering broken at %d: %v then %v", i, vs[i-1].S, vs[i].S)
		}
	}
}

func TestVehiclesExitAndCallbacks(t *testing.T) {
	e := sim.NewEngine()
	entered, exited := 0, 0
	road := NewRoad(RoadConfig{Length: 200, LanesPerDirection: 1})
	n := NewNetwork(e, NetworkConfig{Road: road, SpawnGap: 50})
	n.OnEnter = func(*Vehicle) { entered++ }
	n.OnExit = func(*Vehicle) { exited++ }
	e.Run(30 * time.Second)
	if entered == 0 || exited == 0 {
		t.Fatalf("entered=%d exited=%d, want both > 0", entered, exited)
	}
	if entered-exited != n.Count() {
		t.Fatalf("entered-exited=%d, Count=%d", entered-exited, n.Count())
	}
	// 200 m at 30 m/s: every vehicle alive is younger than ~8 s.
	for _, v := range n.Vehicles() {
		if e.Now()-v.EnteredAt > 9*time.Second {
			t.Fatalf("vehicle %d lingering for %v", v.ID, e.Now()-v.EnteredAt)
		}
	}
}

func TestCloseGateStopsSpawning(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e, NetworkConfig{
		Road:     NewRoad(RoadConfig{Length: 10000, LanesPerDirection: 1, TwoWay: true}),
		SpawnGap: 30,
	})
	e.Run(5 * time.Second)
	n.CloseGate(East)
	countAt5 := len(n.Road().LanesOf(East)[0].Vehicles())
	e.Run(10 * time.Second)
	if got := len(n.Road().LanesOf(East)[0].Vehicles()); got != countAt5 {
		t.Fatalf("eastbound grew from %d to %d after gate closed", countAt5, got)
	}
	if got := len(n.Road().LanesOf(West)[0].Vehicles()); got <= countAt5 {
		t.Fatalf("westbound should keep spawning, got %d", got)
	}
	if !n.gateClosed[East] || n.gateClosed[West] {
		t.Fatal("gate state wrong")
	}
}

func TestHazardStopsTraffic(t *testing.T) {
	e := sim.NewEngine()
	road := NewRoad(RoadConfig{Length: 2000, LanesPerDirection: 2})
	n := NewNetwork(e, NetworkConfig{Road: road, SpawnGap: 30})
	e.Run(20 * time.Second)
	n.PlaceHazard(East, 1000)
	e.Run(120 * time.Second)

	// No vehicle may pass the hazard after it appears... vehicles already
	// past x=1000 at t=20s have exited by t=140s (1000 m at 30 m/s = 33 s).
	for _, v := range n.Vehicles() {
		if v.X() > 1001 {
			t.Fatalf("vehicle %d passed the hazard: x=%v", v.ID, v.X())
		}
	}
	// A queue forms: the front-most vehicle is stopped near the hazard.
	lane := road.LanesOf(East)[0]
	vs := lane.Vehicles()
	if len(vs) == 0 {
		t.Fatal("no vehicles queued")
	}
	head := vs[0]
	if head.Speed > 0.5 {
		t.Fatalf("queue head still moving at %v m/s", head.Speed)
	}
	if head.S < 950 {
		t.Fatalf("queue head stopped far from hazard: s=%v", head.S)
	}
}

func TestHazardCausesJamGrowth(t *testing.T) {
	// With the entrance open and the road blocked, the on-road count keeps
	// growing — the paper's traffic-jam signature (Fig 12).
	e := sim.NewEngine()
	road := NewRoad(RoadConfig{Length: 4000, LanesPerDirection: 2})
	n := NewNetwork(e, NetworkConfig{Road: road, SpawnGap: 30})
	n.PlaceHazard(East, 3600)
	e.Run(60 * time.Second)
	at60 := n.Count()
	e.Run(120 * time.Second)
	at120 := n.Count()
	if at120 <= at60 {
		t.Fatalf("jam not growing: %d at 60s, %d at 120s", at60, at120)
	}
}

func TestNoCollisionsUnderIDM(t *testing.T) {
	// Safety property: IDM with the paper's parameters never lets a
	// follower overlap its leader, even with a hazard-induced shockwave.
	e := sim.NewEngine()
	road := NewRoad(RoadConfig{Length: 3000, LanesPerDirection: 1})
	n := NewNetwork(e, NetworkConfig{Road: road, SpawnGap: 30})
	n.PlaceHazard(East, 2500)
	length := DefaultIDM().VehicleLength
	for step := 0; step < 150; step++ {
		e.Run(time.Duration(step+1) * time.Second)
		lane := road.LanesOf(East)[0]
		vs := lane.Vehicles()
		for i := 1; i < len(vs); i++ {
			gap := vs[i-1].S - vs[i].S - length
			if gap < -0.5 { // allow small numerical overlap at spawn
				t.Fatalf("collision at t=%ds: gap=%v between %d and %d",
					step+1, gap, vs[i-1].ID, vs[i].ID)
			}
		}
	}
}

func TestSpawnDisabled(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e, NetworkConfig{
		Road:          NewRoad(RoadConfig{Length: 1000, LanesPerDirection: 1}),
		SpawnDisabled: true,
	})
	e.Run(10 * time.Second)
	if n.Count() != 0 {
		t.Fatalf("spawn-disabled network has %d vehicles", n.Count())
	}
}

func TestVehicleVelocityAndPosition(t *testing.T) {
	e := sim.NewEngine()
	road := NewRoad(RoadConfig{Length: 1000, LanesPerDirection: 1, TwoWay: true})
	n := NewNetwork(e, NetworkConfig{Road: road, SpawnDisabled: true})
	ve := n.AddVehicle(road.LanesOf(East)[0], 100, 25)
	vw := n.AddVehicle(road.LanesOf(West)[0], 100, 10)
	if got := ve.Velocity(); got.DX != 25 || got.DY != 0 {
		t.Errorf("east velocity = %v", got)
	}
	if got := vw.Velocity(); got.DX != -10 || got.DY != 0 {
		t.Errorf("west velocity = %v", got)
	}
	if ve.X() != 100 {
		t.Errorf("east X = %v, want 100", ve.X())
	}
	if vw.X() != 900 {
		t.Errorf("west X = %v, want 900", vw.X())
	}
}

func TestSteadyStateFlowMatchesPaperDensity(t *testing.T) {
	// Default scenario sanity: a prepopulated one-way 4,000 m road with
	// 30 m spacing and 2 lanes holds ~266 vehicles; with IDM settling, the
	// count must stay in that ballpark over a 60 s window.
	e := sim.NewEngine()
	n := NewNetwork(e, NetworkConfig{
		Road:        NewRoad(RoadConfig{Length: 4000, LanesPerDirection: 2}),
		SpawnGap:    30,
		Prepopulate: true,
	})
	initial := n.Count()
	if initial < 260 || initial > 270 {
		t.Fatalf("prepopulated count = %d, want ~266", initial)
	}
	e.Run(60 * time.Second)
	c := n.Count()
	if c < 150 || c > 300 {
		t.Fatalf("steady-state count = %d, want within [150, 300]", c)
	}
}

// TestVehicleSizeClass pins Vehicle to one 64-byte cache line, the
// allocator's 64-byte size class: a 48-byte vehicle would share lines,
// half of them straddling two, and the integrator and the workload
// generators read every vehicle each step.
func TestVehicleSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Vehicle{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Vehicle{}) = %d, want 64 (one line, the 64-byte class)", got)
	}
}
