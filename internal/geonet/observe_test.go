package geonet

import (
	"reflect"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/sim"
	"github.com/vanetsec/georoute/internal/trace"
)

// TestTracePTypeMirrorsWire pins the cross-package contract observe.go
// relies on: trace.PType values equal the GeoNetworking wire type codes,
// so records can be stamped with a plain conversion.
func TestTracePTypeMirrorsWire(t *testing.T) {
	want := map[PacketType]string{
		TypeBeacon:       "beacon",
		TypeGeoUnicast:   "guc",
		TypeGeoBroadcast: "gbc",
	}
	for pt, name := range want {
		if got := trace.PType(pt).String(); got != name {
			t.Errorf("trace.PType(%d) = %q, want %q", pt, got, name)
		}
	}
	if got := trace.PType(TypeGeoBroadcast + 1).String(); got != "unknown" {
		t.Errorf("trace.PType(%d) = %q, want unknown: trace names a type geonet does not have", TypeGeoBroadcast+1, got)
	}
}

// TestStatsAddCoversAllFields uses reflection to assert Stats.Add
// accumulates every field, so adding a counter without extending Add is
// caught immediately.
func TestStatsAddCoversAllFields(t *testing.T) {
	var a, b Stats
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("Stats field %s is %v; update this test for non-uint64 counters",
				av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		want := uint64(i+1) + uint64(100*(i+1))
		if got := av.Field(i).Uint(); got != want {
			t.Errorf("Stats.Add misses field %s: got %d, want %d",
				av.Type().Field(i).Name, got, want)
		}
	}
}

// testReceiver builds router 1 at the origin and the CA that enrolls its
// peers.
func testReceiver(tr *trace.Tracer) (*Router, *sim.Engine, *security.SimCA) {
	engine := sim.NewEngine()
	ca := security.NewSimCA(1)
	rx := NewRouter(Config{
		Addr:     1,
		Engine:   engine,
		Medium:   radio.NewMedium(engine, radio.Config{}),
		Signer:   ca.Enroll(1, 0),
		Verifier: ca,
		Position: func() geo.Point { return geo.Pt(0, 0) },
		Range:    486,
		Tracer:   tr,
	})
	return rx, engine, ca
}

// receiveFixture builds a router plus a cached signed beacon frame, the
// simulator's hottest receive path.
func receiveFixture(tb testing.TB, tr *trace.Tracer) (*Router, radio.Frame) {
	tb.Helper()
	rx, _, ca := testReceiver(tr)
	rx.Start()
	return rx, signedBeacon(ca.Enroll(2, 0), 2)
}

// signedBeacon is a cached beacon frame from addr, sent by node 2.
func signedBeacon(signer security.Signer, addr Address) radio.Frame {
	beacon := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 1},
		Type:     TypeBeacon,
		SourcePV: PositionVector{Addr: addr, Timestamp: time.Second, Pos: geo.Pt(100, 0), Speed: 30, Heading: 90},
	}
	beacon.Sign(signer)
	return radio.Frame{From: 2, To: radio.BroadcastID, Payload: beacon.Marshal(), Cache: &radio.FrameCache{}}
}

// beaconRingPeriod is the PV timestamp step between consecutive beacons
// of freshBeaconFixture's sender.
const beaconRingPeriod = 100 * time.Millisecond

// freshBeaconFixture builds a receiving router plus a ring of n beacons
// pre-signed by one sender (address 2). Beacon k carries PV timestamp
// (k+1)·beaconRingPeriod, so delivering the ring in order at those times
// is a run of fresh, non-replayed receptions, each refreshing the
// sender's LocT entry. The router is not started, so no beacon timer of
// its own fires while the caller advances the engine clock. With cached
// set every frame carries a FrameCache warmed by one decode, as the
// medium shares per transmission, leaving verify + LocT refresh per
// delivery; uncached frames decode on every delivery.
func freshBeaconFixture(tb testing.TB, n int, cached bool) (*Router, *sim.Engine, []radio.Frame) {
	tb.Helper()
	rx, engine, ca := testReceiver(nil)
	sender := ca.Enroll(2, 0)
	ring := make([]radio.Frame, n)
	for k := range ring {
		beacon := &Packet{
			Basic: BasicHeader{Version: 1, RHL: 1},
			Type:  TypeBeacon,
			SourcePV: PositionVector{
				Addr:      2,
				Timestamp: time.Duration(k+1) * beaconRingPeriod,
				Pos:       geo.Pt(100+3*float64(k), 0),
				Speed:     30,
				Heading:   90,
			},
		}
		beacon.Sign(sender)
		ring[k] = radio.Frame{From: 2, To: radio.BroadcastID, Payload: beacon.Marshal()}
		if cached {
			ring[k].Cache = &radio.FrameCache{}
			if _, err := DecodeFrame(ring[k]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return rx, engine, ring
}

// TestRouterReceiveAllocsFreshBeacon pins the receive path that runs
// millions of times per campaign: a cached beacon whose PV is newer than
// the stored one, so the LocT entry really is refreshed. (Replaying one
// frame, as the nil-observer tests do, only reaches the same-timestamp
// no-op.)
func TestRouterReceiveAllocsFreshBeacon(t *testing.T) {
	const runs = 200
	// AllocsPerRun makes one warm-up call before the measured runs, and
	// one delivery before it learns the sender.
	rx, engine, ring := freshBeaconFixture(t, runs+2, true)
	next := 0
	deliver := func() {
		next++
		engine.Run(time.Duration(next) * beaconRingPeriod)
		rx.Deliver(ring[next-1])
	}
	deliver() // first sight of the sender: the one entry allocation
	entry := rx.loct.Lookup(2, engine.Now())
	if entry == nil {
		t.Fatal("sender not learned")
	}
	allocs := testing.AllocsPerRun(runs, deliver)
	if allocs != 0 {
		t.Fatalf("fresh beacon reception allocates %.1f/op, want 0", allocs)
	}
	if next != len(ring) {
		t.Fatalf("delivered %d beacons, want %d", next, len(ring))
	}
	got := rx.loct.Lookup(2, engine.Now())
	if got != entry {
		t.Error("LocT entry replaced instead of refreshed in place")
	}
	if want := time.Duration(len(ring)) * beaconRingPeriod; got.PV.Timestamp != want || got.ExpiresAt != engine.Now()+rx.loct.ttl {
		t.Errorf("entry PV timestamp %v expires at %v, want %v and %v: not every delivery refreshed it",
			got.PV.Timestamp, got.ExpiresAt, want, engine.Now()+rx.loct.ttl)
	}
	if n := rx.Stats().BeaconsReceived; n != uint64(len(ring)) {
		t.Errorf("BeaconsReceived = %d, want %d", n, len(ring))
	}
}

// TestRouterReceiveAllocsNilTracer asserts the PR 2 guarantee survives the
// tracing subsystem: with no tracer attached, a cached beacon reception
// allocates nothing.
func TestRouterReceiveAllocsNilTracer(t *testing.T) {
	rx, frame := receiveFixture(t, nil)
	rx.Deliver(frame) // warm the decode/verify cache
	allocs := testing.AllocsPerRun(200, func() {
		rx.Deliver(frame)
	})
	if allocs != 0 {
		t.Fatalf("receive path allocates %.1f/op with tracing disabled, want 0", allocs)
	}
}

// TestRouterReceiveMonitorFlagsReplay: with a detector among its tracer's
// sinks, a router that receives the same beacon frame twice trips the
// stale-timestamp and inter-arrival checks, and the verdicts carry the
// detector's ground-truth labeling.
func TestRouterReceiveMonitorFlagsReplay(t *testing.T) {
	det := detect.New(detect.Config{
		Truth: func(suspect uint64) bool { return suspect == 2 },
	})
	rx, frame := receiveFixture(t, trace.New(det))
	rx.Deliver(frame)
	rx.Deliver(frame) // same PV again: stale timestamp + sub-floor gap
	s := det.Summary()
	if !s.Detected || s.Verdicts == 0 {
		t.Fatalf("replayed beacon produced no verdicts: %+v", s)
	}
	for check, cs := range s.Checks {
		if cs.FalsePositives != 0 {
			t.Errorf("check %s raised %d false alarms, want 0 (suspect is labeled attacker)", check, cs.FalsePositives)
		}
	}
}

// TestRouterReceiveEmitsRX: with a tracer attached the same reception
// produces an EvRX record carrying the frame's identity.
func TestRouterReceiveEmitsRX(t *testing.T) {
	mem := &trace.MemorySink{}
	rx, frame := receiveFixture(t, trace.New(mem))
	rx.Deliver(frame)
	var got *trace.Record
	for i := range mem.Records {
		if mem.Records[i].Event == trace.EvRX {
			got = &mem.Records[i]
			break
		}
	}
	if got == nil {
		t.Fatalf("no EvRX record among %d records", len(mem.Records))
	}
	if got.Node != 1 || got.Peer != 2 || got.Src != 2 || got.PType != trace.PTBeacon {
		t.Errorf("EvRX record fields wrong: %+v", *got)
	}
	if !got.HasClaim || got.ClaimPos != geo.Pt(100, 0) || got.ClaimTS != time.Second ||
		got.RxPos != geo.Pt(0, 0) || got.RxRange != 486 {
		t.Errorf("EvRX record claim wrong: %+v", *got)
	}
}

// TestRouterRetiredTypeIsDecodeError: a signed GUC frame whose type byte
// names a retired type (4–7: single-hop broadcast, topologically-scoped
// broadcast, location-service request and reply) is a malformed frame
// like any unknown type. It counts one DecodeErrors, emits one
// decode_fail drop, and leaves a trace that balances.
func TestRouterRetiredTypeIsDecodeError(t *testing.T) {
	for _, typ := range []byte{4, 5, 6, 7} {
		mem := &trace.MemorySink{}
		rx, _, ca := testReceiver(trace.New(mem))
		rx.Start()
		p := &Packet{
			Basic:    BasicHeader{Version: 1, RHL: 9},
			Type:     TypeGeoUnicast,
			SN:       3,
			SourcePV: PositionVector{Addr: 2, Pos: geo.Pt(100, 0)},
			DestAddr: 1,
			Payload:  []byte("x"),
		}
		p.Sign(ca.Enroll(2, 0))
		wire := p.Marshal()
		wire[basicHeaderLen] = typ
		rx.Deliver(radio.Frame{From: 2, To: 1, Payload: wire, Cache: &radio.FrameCache{}})

		if got := rx.Stats(); got != (Stats{DecodeErrors: 1}) {
			t.Errorf("type %d: stats %+v, want exactly one DecodeErrors", typ, got)
		}
		if len(mem.Records) != 1 || mem.Records[0].Event != trace.EvDrop || mem.Records[0].Reason != trace.ReasonDecodeFail {
			t.Errorf("type %d: records %+v, want one decode_fail drop", typ, mem.Records)
		}
		a := trace.Analyze(mem.Records)
		if v := a.Violations(); len(v) > 0 {
			t.Errorf("type %d: conservation violations: %v", typ, v)
		}
		if a.FrameDrops[trace.ReasonDecodeFail] != 1 {
			t.Errorf("type %d: frame drops %v, want one decode_fail", typ, a.FrameDrops)
		}
	}
}

// TestRouterOwnEchoRecordsHopBudget: an echo of the router's own packet
// is recorded with the packet's origination time and the router's hop
// limit, the evidence of the detector's own-echo check.
func TestRouterOwnEchoRecordsHopBudget(t *testing.T) {
	mem := &trace.MemorySink{}
	rx, _, ca := testReceiver(trace.New(mem))
	rx.Start()
	rx.Deliver(signedBeacon(ca.Enroll(1, 0), 1))
	for _, r := range mem.Records {
		if r.Reason != trace.ReasonOwnEcho {
			continue
		}
		if r.ClaimTS != time.Second || r.InitRHL != DefaultMaxHopLimit || r.HasClaim {
			t.Errorf("own_echo record evidence wrong: %+v", r)
		}
		return
	}
	t.Fatalf("no own_echo record among %d records", len(mem.Records))
}
