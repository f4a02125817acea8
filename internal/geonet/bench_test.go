package geonet

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/security"
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
	lt := NewLocT(20*time.Second, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lt.Update(PositionVector{
			Addr:      Address(i % 64),
			Timestamp: time.Duration(i),
			Pos:       geo.Pt(float64(i%4000), 0),
		}, time.Duration(i), true)
	}
}

func BenchmarkLocTClosest64Neighbors(b *testing.B) {
	// A realistic mid-road LocT: ~64 neighbors within range.
	lt := NewLocT(20*time.Second, 0)
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
	lapSpan := n*beaconRingPeriod + rx.loct.TTL()
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
