package geonet

import (
	"math/rand/v2"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/sim"
)

func benchPacket(b *testing.B) (*Packet, security.Signer, security.Verifier) {
	b.Helper()
	ca := security.NewSimCA(1)
	signer := ca.Enroll(42, 0)
	p := &Packet{
		Basic: BasicHeader{Version: 1, RHL: 16, LifetimeMs: 60000},
		Type:  TypeGeoBroadcast,
		SN:    7,
		SourcePV: PositionVector{
			Addr: 42, Timestamp: time.Second, Pos: geo.Pt(1234, 5), Speed: 30, Heading: 90,
		},
		Area:    geo.NewRect(geo.Pt(2000, 0), 2000, 30, 90),
		Payload: make([]byte, 64),
	}
	p.Sign(signer)
	return p, signer, ca
}

func BenchmarkPacketMarshal(b *testing.B) {
	p, _, _ := benchPacket(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

func BenchmarkPacketUnmarshal(b *testing.B) {
	p, _, _ := benchPacket(b)
	wire := p.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketVerify(b *testing.B) {
	p, _, verifier := benchPacket(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Verify(verifier, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocTUpdate(b *testing.B) {
	lt := newLocT(20*time.Second, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lt.Update(PositionVector{
			Addr:      Address(i % 64),
			Timestamp: time.Duration(i),
			Pos:       geo.Pt(float64(i%4000), 0),
		}, time.Duration(i), true)
	}
}

// BenchmarkLocTFrameOrder measures LocT refreshes in the order a
// beacon-heavy run makes them: 480 vehicles on a ring, each frame a fresh
// PV from one source refreshing the tables of the 150 consecutive
// receivers around it, sources taking turns in a fixed shuffled order.
// BenchmarkLocTUpdate's single 64-entry table stays in L1; here the
// tables (480 × 150 entries) do not, so the cost of reaching the index
// and the entry shows. One op is one frame; ns/update is per refresh.
func BenchmarkLocTFrameOrder(b *testing.B) {
	const (
		vehicles  = 480
		heard     = 150
		addrBase  = 1000 // vehicle addresses start here, as in internal/vanet
		frameStep = 3 * time.Second / vehicles
	)
	tables := make([]*LocT, vehicles)
	for i := range tables {
		tables[i] = newLocT(0, 0)
	}
	order := rand.New(rand.NewPCG(1, 2)).Perm(vehicles)
	now := time.Duration(0)
	frame := func(k int) {
		src := order[k%vehicles]
		now += frameStep
		pv := PositionVector{Addr: Address(addrBase + src), Timestamp: now, Pos: geo.Pt(float64(src)*10, 0)}
		for j := src - heard/2; j < src+heard/2; j++ {
			tables[(j+vehicles)%vehicles].Update(pv, now, true)
		}
	}
	for k := 0; k < vehicles; k++ { // every receiver learns its sources
		frame(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*heard), "ns/update")
}

func BenchmarkLocTClosest64Neighbors(b *testing.B) {
	// A realistic mid-road LocT: ~64 neighbors within range.
	lt := newLocT(20*time.Second, 0)
	for i := 0; i < 64; i++ {
		lt.Update(PositionVector{
			Addr:      Address(i + 1),
			Timestamp: time.Second,
			Pos:       geo.Pt(float64(i)*15-480, 0),
		}, time.Second, true)
	}
	dst := geo.Pt(4020, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if lt.Closest(dst, 2*time.Second, nil) == nil {
			b.Fatal("no candidate")
		}
	}
}

func BenchmarkRouterBeaconReceive(b *testing.B) {
	// The simulator's hottest path: decode + verify + LocT refresh of a
	// fresh beacon. Every delivery advances the sender's PV timestamp; at
	// the end of each lap of the ring the clock jumps past the entry TTL,
	// so the ring's first beacon re-learns the expired (not yet purged)
	// entry instead of replaying as stale.
	const n = 256
	rx, engine, ring := freshBeaconFixture(b, n, false)
	lapSpan := n*beaconRingPeriod + rx.loct.ttl
	var lap time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % n
		if k == 0 && i > 0 {
			lap += lapSpan
		}
		engine.Run(lap + time.Duration(k+1)*beaconRingPeriod)
		rx.Deliver(ring[k])
	}
}

// stateSink keeps the benchmarked lookups from being optimized away.
var stateSink *pktState

// BenchmarkRouterPacketState measures the router's per-packet state in
// the shape of a Fig. 9 CBF storm (the cbf_storm workload): 270 routers,
// each holding the same 300 live packets, whose sources were drawn at
// random from 270 vehicles. Routers take turns, so the states do not stay
// in cache between a router's operations.
//
//   - duplicate: a later copy of a held packet;
//   - first-copy: the first copy of a new packet (the routers are
//     refilled, untimed, after each has taken another 300);
//   - purge: a beacon round's purge while no packet has expired, as in
//     every cbf_storm run (40 s against a 60 s lifetime).
func BenchmarkRouterPacketState(b *testing.B) {
	const (
		routers  = 270
		sources  = 270
		held     = 300
		addrBase = 1000
	)
	engine := sim.NewEngine()
	engine.Run(30 * time.Second)
	ca := security.NewSimCA(1)
	medium := radio.NewMedium(engine, radio.Config{})
	rng := rand.New(rand.NewPCG(3, 4))
	sn := make([]uint16, sources)
	// packets draws n packets from random sources, numbered per source.
	packets := func(n int) []*Packet {
		ps := make([]*Packet, n)
		for i := range ps {
			src := rng.IntN(sources)
			sn[src]++
			ps[i] = &Packet{
				Basic:    BasicHeader{LifetimeMs: 60000},
				SN:       sn[src],
				SourcePV: PositionVector{Addr: Address(addrBase + src), Timestamp: engine.Now() - time.Second},
			}
		}
		return ps
	}
	base := packets(held)
	var rs []*Router
	fill := func() {
		rs = make([]*Router, routers)
		for i := range rs {
			rs[i] = NewRouter(Config{
				Addr:     Address(addrBase + i),
				Engine:   engine,
				Medium:   medium,
				Signer:   ca.Enroll(security.StationID(addrBase+i), 0),
				Verifier: ca,
				Position: func() geo.Point { return geo.Pt(0, 0) },
				Range:    500,
			})
			for _, p := range base {
				rs[i].stateFor(p)
			}
		}
	}
	fill()
	b.Run("duplicate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stateSink = rs[i%routers].stateFor(base[(i/routers*7+i)%held])
		}
	})
	b.Run("first-copy", func(b *testing.B) {
		fresh := packets(held)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % (routers * held)
			if k == 0 && i > 0 {
				b.StopTimer()
				fill()
				fresh = packets(held)
				b.StartTimer()
			}
			stateSink = rs[k%routers].stateFor(fresh[k/routers])
		}
	})
	fill()
	b.Run("purge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs[i%routers].purgeStates()
		}
	})
}
