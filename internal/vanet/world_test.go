package vanet

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/trace"
	"github.com/vanetsec/georoute/internal/traffic"
)

func smallWorld(cfg Config) *World {
	if cfg.Road.Length == 0 {
		cfg.Road = traffic.RoadConfig{Length: 2000, LanesPerDirection: 1}
	}
	if cfg.SpawnGap == 0 {
		cfg.SpawnGap = 100
	}
	return New(cfg)
}

func TestVehiclesGetRouters(t *testing.T) {
	w := smallWorld(Config{Seed: 1, Prepopulate: true})
	if w.Traffic.Count() == 0 {
		t.Fatal("no vehicles")
	}
	for _, v := range w.AppendVehicles(nil) {
		r := w.RouterOf(v)
		if r == nil {
			t.Fatalf("vehicle %d has no router", v.ID)
		}
		if !w.Medium.Attached(radio.NodeID(AddrOf(v))) {
			t.Fatalf("vehicle %d router not on the medium", v.ID)
		}
	}
}

func TestExitingVehicleDetaches(t *testing.T) {
	w := smallWorld(Config{Seed: 1, Prepopulate: true})
	first := w.AppendVehicles(nil)[0]
	addr := AddrOf(first)
	w.Run(90 * time.Second) // 2,000 m at ~30 m/s: the leader exits
	if w.Router(addr) != nil {
		t.Fatal("router for exited vehicle still registered")
	}
	if w.Medium.Attached(radio.NodeID(addr)) {
		t.Fatal("antenna for exited vehicle still attached")
	}
}

// TestDepartedLocTHandedToNextArrival: when a vehicle leaves, its
// stopped router hands its location table on, emptied, and the next
// vehicle to arrive gets that table object. The stopped router exposes
// none of the old entries, and the new router starts with none of them.
func TestDepartedLocTHandedToNextArrival(t *testing.T) {
	w := smallWorld(Config{Seed: 1, Prepopulate: true})
	w.Run(5 * time.Second)
	vs := w.AppendVehicles(nil)
	leaving, arriving := vs[len(vs)/2], vs[len(vs)/2+1]
	old := w.RouterOf(leaving)
	lt := old.LocT()
	learned := lt.AppendNeighbors(nil, w.Engine.Now())
	if len(learned) == 0 {
		t.Fatal("mid-road vehicle learned no neighbors in 5 s")
	}
	addrs := make([]geonet.Address, len(learned))
	for i, e := range learned {
		addrs[i] = e.PV.Addr
	}

	spares := len(w.spareLocT) // tables of vehicles that already left
	w.detachVehicle(leaving)
	if old.LocT() != nil {
		t.Fatal("stopped router still exposes its location table")
	}
	// Re-attach a vehicle as if it had just entered the road.
	w.detachVehicle(arriving)
	spare := w.spareLocT[len(w.spareLocT)-1]
	w.attachVehicle(arriving)
	r := w.RouterOf(arriving)
	if r.LocT() != spare {
		t.Fatal("arriving router did not take the last departed table")
	}
	w.attachVehicle(leaving)
	if w.RouterOf(leaving).LocT() != lt || len(w.spareLocT) != spares {
		t.Fatalf("second arrival did not take the first departed table; %d spare, want %d", len(w.spareLocT), spares)
	}
	now := w.Engine.Now()
	if lt.Len() != 0 {
		t.Fatalf("reused table holds %d entries, want 0", lt.Len())
	}
	for _, a := range addrs {
		if lt.Lookup(a, now) != nil {
			t.Fatalf("reused table still holds address %d", a)
		}
	}
	w.Run(now + 5*time.Second)
	if lt.Len() == 0 || r.LocT().Len() == 0 {
		t.Fatalf("reused tables hold %d and %d entries after 5 s, want some", lt.Len(), r.LocT().Len())
	}
	if old.LocT() != nil {
		t.Fatal("stopped router exposes a table after the new router learned")
	}
}

func TestBeaconsFlowBetweenVehicles(t *testing.T) {
	w := smallWorld(Config{Seed: 1, Prepopulate: true})
	w.Run(10 * time.Second)
	vs := w.AppendVehicles(nil)
	if len(vs) < 3 {
		t.Fatal("need several vehicles")
	}
	mid := vs[len(vs)/2]
	r := w.RouterOf(mid)
	if r.Stats().BeaconsReceived == 0 {
		t.Fatal("mid-road vehicle heard no beacons after 10 s")
	}
	if r.LocT().Len() == 0 {
		t.Fatal("mid-road vehicle has empty LocT")
	}
}

func TestStaticDestinationReceivesGUC(t *testing.T) {
	delivered := make(map[geonet.Address]int)
	var w *World
	w = smallWorld(Config{
		Seed:        1,
		Prepopulate: true,
		OnDeliver: func(addr geonet.Address, p *geonet.Packet) {
			delivered[addr]++
		},
	})
	dest := w.AddStatic(EastDestAddr, geo.Pt(2020, 0), 0)
	_ = dest
	w.Run(10 * time.Second)

	vs := w.AppendVehicles(nil)
	src := vs[len(vs)/2]
	w.RouterOf(src).SendGeoUnicast(EastDestAddr, geo.Pt(2020, 0), []byte("to the end"))
	w.Run(30 * time.Second)
	if delivered[EastDestAddr] != 1 {
		t.Fatalf("destination deliveries = %d, want 1", delivered[EastDestAddr])
	}
}

// TestRouterTemplateAppliesToEveryNode: Config.Router's settings reach
// every router the world starts, while the world sets the per-node
// fields over whatever the template holds. A two-hop limit keeps the
// GUC TestStaticDestinationReceivesGUC delivers from crossing the road.
func TestRouterTemplateAppliesToEveryNode(t *testing.T) {
	mem := &trace.MemorySink{}
	delivered := 0
	w := smallWorld(Config{
		Seed:        1,
		Prepopulate: true,
		Router:      geonet.Config{Addr: 7, Range: 1, MaxHopLimit: 2, Tracer: trace.New(mem)},
		OnDeliver: func(addr geonet.Address, p *geonet.Packet) {
			if addr == EastDestAddr {
				delivered++
			}
		},
	})
	dest := w.AddStatic(EastDestAddr, geo.Pt(2020, 0), 0)
	if dest.Addr() != EastDestAddr || dest.Range() != w.VehicleRange() {
		t.Fatalf("static router has address %d, range %v; want %d, %v", dest.Addr(), dest.Range(), EastDestAddr, w.VehicleRange())
	}
	w.Run(10 * time.Second)
	vs := w.AppendVehicles(nil)
	for _, v := range vs {
		if r := w.RouterOf(v); r.Addr() != AddrOf(v) || r.Range() != w.VehicleRange() {
			t.Fatalf("vehicle %d's router has address %d, range %v", v.ID, r.Addr(), r.Range())
		}
	}
	src := AddrOf(vs[len(vs)/2])
	key := w.Router(src).SendGeoUnicast(EastDestAddr, geo.Pt(2020, 0), []byte("to the end"))
	w.Run(30 * time.Second)
	if delivered != 0 {
		t.Fatalf("a 2-hop GUC crossed a 1 km gap: %d deliveries", delivered)
	}
	originated := false
	for _, r := range mem.Records {
		if r.Event == trace.EvOriginate && r.Src == uint64(key.Src) && r.SN == key.SN {
			originated = r.RHL == 2
		}
	}
	if !originated {
		t.Fatal("the traced origination does not carry the template's hop limit")
	}
}

func TestDuplicateStaticPanics(t *testing.T) {
	w := smallWorld(Config{Seed: 1})
	w.AddStatic(5, geo.Pt(0, 0), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.AddStatic(5, geo.Pt(1, 0), 0)
}

func TestWorldDeterminism(t *testing.T) {
	run := func() (uint64, int) {
		w := smallWorld(Config{Seed: 42, Prepopulate: true})
		w.Run(20 * time.Second)
		var beacons uint64
		for _, v := range w.AppendVehicles(nil) {
			beacons += w.RouterOf(v).Stats().BeaconsReceived
		}
		return beacons, w.Traffic.Count()
	}
	b1, c1 := run()
	b2, c2 := run()
	if b1 != b2 || c1 != c2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", b1, c1, b2, c2)
	}
}

// TestVehiclesMatchesSortedLanes pins World.AppendVehicles, a
// concatenation of each segment's ID-ordered list, to the sort it
// replaced: every lane vehicle of every segment, sorted by ID, appended
// to nil and to a prefix. It checks a spawning road whose vehicles enter
// and exit, a scale world, and a scale world after some of its vehicles
// left by their segment ends.
func TestVehiclesMatchesSortedLanes(t *testing.T) {
	oldSort := func(w *World) []*traffic.Vehicle {
		var vs []*traffic.Vehicle
		for _, n := range w.segments {
			for _, l := range n.Road().Lanes {
				vs = append(vs, l.Vehicles()...)
			}
		}
		slices.SortFunc(vs, func(a, b *traffic.Vehicle) int { return cmp.Compare(a.ID, b.ID) })
		return vs
	}
	check := func(name string, w *World) {
		t.Helper()
		want := oldSort(w)
		if got := w.AppendVehicles(nil); !slices.Equal(got, want) {
			t.Fatalf("%s: AppendVehicles has %d vehicles, the sorted lanes %d, or their order differs", name, len(got), len(want))
		}
		// A reused buffer keeps its prefix, whose IDs take no part in
		// the order check: here it holds the highest ID.
		prefix := []*traffic.Vehicle{want[len(want)-1]}
		if got := w.AppendVehicles(prefix); !slices.Equal(got, append(prefix, want...)) {
			t.Fatalf("%s: AppendVehicles after a prefix differs from the prefix and the sorted lanes", name)
		}
	}
	road := smallWorld(Config{Seed: 3, Prepopulate: true, Road: traffic.RoadConfig{Length: 600, LanesPerDirection: 2, TwoWay: true}})
	for step := 0; step < 8; step++ {
		road.Run(time.Duration(step+1) * 5 * time.Second)
		check("spawning road", road)
	}
	scale := tinyScale()
	check("scale world", scale)
	before := scale.VehicleCount()
	scale.Run(10 * time.Second)
	if scale.VehicleCount() >= before {
		t.Fatalf("no vehicle left the scale world: %d before, %d after", before, scale.VehicleCount())
	}
	check("scale world after exits", scale)
}

func TestVehiclesSortedByID(t *testing.T) {
	w := smallWorld(Config{Seed: 1, Prepopulate: true})
	vs := w.AppendVehicles(nil)
	for i := 1; i < len(vs); i++ {
		if vs[i-1].ID >= vs[i].ID {
			t.Fatal("AppendVehicles not sorted by ID")
		}
	}
}

func TestTrafficUnaffectedByAttacker(t *testing.T) {
	// A/B pairing foundation: vehicle trajectories, beacon schedules and
	// spawn sequences must be bit-identical with and without an attacker
	// on the medium.
	run := func(withAttacker bool) []float64 {
		w := smallWorld(Config{Seed: 11, Prepopulate: true})
		if withAttacker {
			attack.NewAttacker(attack.Config{
				Engine:   w.Engine,
				Medium:   w.Medium,
				Position: geo.Pt(1000, -2.5),
				Range:    486,
				Mode:     attack.InterArea,
			})
		}
		w.Run(30 * time.Second)
		var xs []float64
		for _, v := range w.AppendVehicles(nil) {
			xs = append(xs, v.X(), v.Speed)
		}
		return xs
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("vehicle populations differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBeaconScheduleUnaffectedByAttacker(t *testing.T) {
	// Routers draw beacon jitter from per-address RNG streams, so the
	// attacker's presence cannot shift them.
	count := func(withAttacker bool) uint64 {
		w := smallWorld(Config{Seed: 11, Prepopulate: true})
		if withAttacker {
			attack.NewAttacker(attack.Config{
				Engine:   w.Engine,
				Medium:   w.Medium,
				Position: geo.Pt(1000, -2.5),
				Range:    486,
				Mode:     attack.IntraArea, // does not replay beacons
			})
		}
		w.Run(20 * time.Second)
		var sent uint64
		for _, v := range w.AppendVehicles(nil) {
			sent += w.RouterOf(v).Stats().BeaconsSent
		}
		return sent
	}
	if a, b := count(false), count(true); a != b {
		t.Fatalf("beacon counts differ with attacker present: %d vs %d", a, b)
	}
}
