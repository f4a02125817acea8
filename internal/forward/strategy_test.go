// Package forward_test drives every registered forwarding strategy
// through the same protocol-level edge cases and pins the zero-alloc
// receive-path guarantee per strategy. The fixtures run real routers
// over the simulated medium so the strategies are exercised through the
// router's receive pipeline, not in isolation.
package forward_test

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/sim"

	_ "github.com/vanetsec/georoute/internal/forward"
)

// arena is a minimal multi-router fixture with a selectable strategy.
type arena struct {
	engine  *sim.Engine
	medium  *radio.Medium
	ca      *security.SimCA
	routers map[geonet.Address]*geonet.Router
}

func newArena(seed uint64) *arena {
	e := sim.NewEngine()
	return &arena{
		engine:  e,
		medium:  radio.NewMedium(e, radio.Config{}),
		ca:      security.NewSimCA(1),
		routers: make(map[geonet.Address]*geonet.Router),
	}
}

func (a *arena) add(addr geonet.Address, pos geo.Point, rangeM float64, strategy string, mutate func(*geonet.Config)) *geonet.Router {
	cfg := geonet.Config{
		Addr:      addr,
		Engine:    a.engine,
		Medium:    a.medium,
		Signer:    a.ca.Enroll(security.StationID(addr), 0),
		Verifier:  a.ca,
		Position:  func() geo.Point { return pos },
		Range:     rangeM,
		Forwarder: strategy,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r := geonet.NewRouter(cfg)
	r.Start()
	a.routers[addr] = r
	return r
}

func (a *arena) stats() geonet.Stats {
	var s geonet.Stats
	for _, r := range a.routers {
		s.Add(r.Stats())
	}
	return s
}

func TestStrategyRegistryPopulated(t *testing.T) {
	names := geonet.StrategyNames()
	want := []string{"gf-cbf", "gpsr", "sfot-k2", "sfot-slot"}
	if len(names) != len(want) {
		t.Fatalf("registered strategies = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registered strategies = %v, want %v (sorted)", names, want)
		}
	}
}

// TestBufferedRetryExpiry: a source with no neighbors buffers the packet
// (store-carry-forward), retries against an unchanging empty LocT, and
// finally drops it at lifetime end — under every strategy.
func TestBufferedRetryExpiry(t *testing.T) {
	for _, name := range geonet.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			a := newArena(3)
			src := a.add(1, geo.Pt(0, 0), 500, name, func(c *geonet.Config) {
				c.PacketLifetime = 2 * time.Second
			})
			a.engine.ScheduleAt(time.Second, "test.send", func() {
				src.SendGeoUnicast(99, geo.Pt(5000, 0), nil)
			})
			a.engine.Run(10 * time.Second)
			st := src.Stats()
			if st.GFBuffered == 0 {
				t.Fatalf("%s: packet not buffered without neighbors (stats %+v)", name, st)
			}
			if st.GFExpired != 1 {
				t.Fatalf("%s: GFExpired = %d, want 1 after lifetime", name, st.GFExpired)
			}
		})
	}
}

// TestDuplicateCancelDuringContention: two in-area contenders hear the
// same GeoBroadcast; the farther one fires first and its rebroadcast is
// the nearer one's duplicate. Standard suppression (gf-cbf, gpsr,
// sfot-slot) cancels the nearer timer; sfot-k2 ignores a single
// duplicate and fires anyway.
func TestDuplicateCancelDuringContention(t *testing.T) {
	for _, name := range geonet.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			a := newArena(5)
			src := a.add(1, geo.Pt(0, 0), 500, name, nil)
			a.add(2, geo.Pt(400, 0), 500, name, nil) // far: short CBF timer
			a.add(3, geo.Pt(100, 0), 500, name, nil) // near: long CBF timer
			area := geo.NewRect(geo.Pt(250, 0), 250, 30, 90)
			a.engine.ScheduleAt(5*time.Second, "test.send", func() {
				src.SendGeoBroadcast(area, nil)
			})
			a.engine.Run(10 * time.Second)
			st := a.stats()
			if st.CBFBuffered < 2 {
				t.Fatalf("%s: CBFBuffered = %d, want both receivers contending", name, st.CBFBuffered)
			}
			if name == "sfot-k2" {
				if st.CBFCanceled != 0 {
					t.Fatalf("sfot-k2: CBFCanceled = %d, want 0 (one duplicate must not suppress)", st.CBFCanceled)
				}
				if st.CBFIgnored == 0 {
					t.Fatal("sfot-k2: no duplicate was ignored")
				}
				if st.CBFForwarded < 2 {
					t.Fatalf("sfot-k2: CBFForwarded = %d, want both contenders to fire", st.CBFForwarded)
				}
			} else {
				if st.CBFCanceled == 0 {
					t.Fatalf("%s: duplicate did not cancel the slower contender (stats %+v)", name, st)
				}
			}
		})
	}
}

// TestRHLExhaustion: a chain longer than the hop limit drops the packet
// with RHLExpired short of the destination — under every strategy.
func TestRHLExhaustion(t *testing.T) {
	for _, name := range geonet.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			a := newArena(9)
			mhl := func(c *geonet.Config) { c.MaxHopLimit = 2 }
			src := a.add(1, geo.Pt(0, 0), 500, name, mhl)
			a.add(2, geo.Pt(400, 0), 500, name, mhl)
			a.add(3, geo.Pt(800, 0), 500, name, mhl)
			var delivered bool
			a.add(4, geo.Pt(1200, 0), 500, name, func(c *geonet.Config) {
				mhl(c)
				c.OnDeliver = func(*geonet.Packet) { delivered = true }
			})
			a.engine.ScheduleAt(5*time.Second, "test.send", func() {
				src.SendGeoUnicast(4, geo.Pt(1200, 0), nil)
			})
			a.engine.Run(15 * time.Second)
			st := a.stats()
			if delivered {
				t.Fatalf("%s: delivered across 3 hops with MaxHopLimit 2", name)
			}
			if st.RHLExpired == 0 {
				t.Fatalf("%s: RHLExpired = 0, want the chain to exhaust the hop limit (stats %+v)", name, st)
			}
		})
	}
}

// hotPathFixture builds one relay with a beacon-warmed LocT plus a
// decoded GeoUnicast to forward. greedyOK selects whether the layout has
// a neighbor with progress (greedy succeeds) or only backward neighbors
// (GPSR enters perimeter mode; others fail to the buffer path).
func hotPathFixture(tb testing.TB, strategy string, greedyOK bool) (*geonet.Router, *geonet.Packet, geo.Point) {
	tb.Helper()
	a := newArena(11)
	relay := a.add(10, geo.Pt(1000, 0), 500, strategy, nil)
	a.add(11, geo.Pt(700, 40), 500, strategy, nil)
	a.add(12, geo.Pt(800, -60), 500, strategy, nil)
	if greedyOK {
		a.add(13, geo.Pt(1400, 10), 500, strategy, nil)
		a.add(14, geo.Pt(1300, -30), 500, strategy, nil)
	}
	a.engine.Run(10 * time.Second) // beacons warm every LocT

	p := &geonet.Packet{
		Basic:    geonet.BasicHeader{Version: 1, RHL: 16, LifetimeMs: 60000},
		Type:     geonet.TypeGeoUnicast,
		SN:       77,
		SourcePV: geonet.PositionVector{Addr: 2, Timestamp: time.Second, Pos: geo.Pt(0, 0)},
		DestAddr: 99,
		DestPos:  geo.Pt(4000, 0),
	}
	p.Sign(a.ca.Enroll(2, 0))
	q, err := geonet.Unmarshal(p.Marshal())
	if err != nil {
		tb.Fatal(err)
	}
	return relay, q, geo.Pt(4000, 0)
}

// TestForwardHotPathAllocs pins the zero-alloc guarantee of every
// registered strategy's next-hop decision, in both the greedy-progress
// and the recovery (local-minimum) neighborhood.
func TestForwardHotPathAllocs(t *testing.T) {
	for _, name := range geonet.StrategyNames() {
		for _, greedyOK := range []bool{true, false} {
			label := name + "/greedy"
			if !greedyOK {
				label = name + "/localmin"
			}
			t.Run(label, func(t *testing.T) {
				r, p, target := hotPathFixture(t, name, greedyOK)
				pol := mustStrategy(t, name).NewNextHop()
				// Warm the policy's scratch buffers once.
				pol.NextHop(r, p, target, 2)
				p.Ext = geonet.PacketExt{}
				allocs := testing.AllocsPerRun(500, func() {
					pol.NextHop(r, p, target, 2)
					p.Ext = geonet.PacketExt{}
				})
				if allocs != 0 {
					t.Fatalf("%s next-hop decision allocates %.1f/op, want 0", label, allocs)
				}
				cpol := mustStrategy(t, name).NewContention()
				allocs = testing.AllocsPerRun(500, func() {
					cpol.Timeout(r, p, 2)
				})
				if allocs != 0 {
					t.Fatalf("%s contention timeout allocates %.1f/op, want 0", label, allocs)
				}
			})
		}
	}
}

func mustStrategy(tb testing.TB, name string) geonet.Strategy {
	tb.Helper()
	s, ok := geonet.LookupStrategy(name)
	if !ok {
		tb.Fatalf("strategy %q not registered", name)
	}
	return s
}

// BenchmarkForwardHotPath measures the per-packet next-hop decision of
// every registered strategy over a warm nine-neighbor LocT.
func BenchmarkForwardHotPath(b *testing.B) {
	for _, name := range geonet.StrategyNames() {
		for _, mode := range []string{"greedy", "localmin"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				r, p, target := hotPathFixture(b, name, mode == "greedy")
				pol := mustStrategy(b, name).NewNextHop()
				pol.NextHop(r, p, target, 2)
				p.Ext = geonet.PacketExt{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pol.NextHop(r, p, target, 2)
					p.Ext = geonet.PacketExt{}
				}
			})
		}
	}
}
