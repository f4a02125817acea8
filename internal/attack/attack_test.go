package attack

import (
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/sim"
)

// fixture builds an engine, medium, CA and a router factory.
type fixture struct {
	engine *sim.Engine
	medium *radio.Medium
	ca     *security.SimCA
}

func newFixture() *fixture {
	e := sim.NewEngine()
	return &fixture{
		engine: e,
		medium: radio.NewMedium(e, radio.Config{}),
		ca:     security.NewSimCA(1),
	}
}

func (f *fixture) router(addr geonet.Address, pos geo.Point, rangeM float64, deliver func(*geonet.Packet)) *geonet.Router {
	r := geonet.NewRouter(geonet.Config{
		Addr:      addr,
		Engine:    f.engine,
		Medium:    f.medium,
		Signer:    f.ca.Enroll(security.StationID(addr), 0),
		Verifier:  f.ca,
		Position:  func() geo.Point { return pos },
		Range:     rangeM,
		OnDeliver: deliver,
	})
	r.Start()
	return r
}

func TestInterAreaBeaconReplayPoisonsVictim(t *testing.T) {
	// Victim at 0, remote vehicle at 700 (out of the victim's 486 m
	// range), attacker at 350 with 486 m coverage reaching both. After
	// one beacon round the victim must list the remote as a neighbor.
	f := newFixture()
	victim := f.router(1, geo.Pt(0, 0), 486, nil)
	f.router(3, geo.Pt(700, 0), 486, nil)
	atk := NewAttacker(Config{
		Engine:   f.engine,
		Medium:   f.medium,
		Position: geo.Pt(350, 0),
		Range:    486,
		Mode:     InterArea,
	})

	f.engine.Run(8 * time.Second)

	e := victim.LocT().Lookup(3, f.engine.Now())
	if e == nil {
		t.Fatal("victim did not learn the out-of-range vehicle")
	}
	if !e.NeighborAt(f.engine.Now()) {
		t.Fatal("poisoned entry must carry live neighbor status")
	}
	st := atk.Stats()
	if st.BeaconsCaptured == 0 || st.BeaconsReplayed == 0 {
		t.Fatalf("attacker inactive: %+v", st)
	}
	if st.BeaconsReplayed > st.BeaconsCaptured {
		t.Fatalf("replayed more than captured: %+v", st)
	}
}

func TestInterAreaInterceptsForwarding(t *testing.T) {
	// Topology: victim V1 at 0, honest relay V2 at 400, remote V3 at 700,
	// destination D at 800 (static, 486 m range). Without the attacker V1
	// forwards via V2; with it, V1 unicasts to V3 — which is out of V1's
	// range — and the packet disappears.
	run := func(attacked bool) (delivered bool, lost uint64) {
		f := newFixture()
		got := false
		v1 := f.router(1, geo.Pt(0, 0), 486, nil)
		f.router(2, geo.Pt(400, 0), 486, nil)
		f.router(3, geo.Pt(700, 0), 486, nil)
		f.router(9, geo.Pt(800, 0), 486, func(p *geonet.Packet) { got = true })
		if attacked {
			NewAttacker(Config{
				Engine:   f.engine,
				Medium:   f.medium,
				Position: geo.Pt(350, 0),
				Range:    486,
				Mode:     InterArea,
			})
		}
		f.engine.Run(8 * time.Second)
		v1.SendGeoUnicast(9, geo.Pt(800, 0), []byte("payload"))
		f.engine.Run(10 * time.Second)
		return got, f.medium.Stats().UnicastLost
	}

	if delivered, _ := run(false); !delivered {
		t.Fatal("attack-free forwarding failed — topology broken")
	}
	delivered, lost := run(true)
	if delivered {
		t.Fatal("packet delivered despite interception")
	}
	if lost == 0 {
		t.Fatal("no unicast recorded as lost — attack did not redirect forwarding")
	}
}

func TestIntraAreaBlockageStopsFlood(t *testing.T) {
	// A 10-node chain spaced 400 m; source at the west end; attacker near
	// the middle. Without the attack everyone receives; with it, nodes
	// beyond the attacker's coverage stay dark.
	run := func(attacked bool) map[geonet.Address]bool {
		f := newFixture()
		received := make(map[geonet.Address]bool)
		routers := make([]*geonet.Router, 0, 10)
		for i := 0; i < 10; i++ {
			addr := geonet.Address(i + 1)
			routers = append(routers, f.router(addr, geo.Pt(float64(i)*400, 0), 486, func(p *geonet.Packet) {
				received[addr] = true
			}))
		}
		if attacked {
			NewAttacker(Config{
				Engine:   f.engine,
				Medium:   f.medium,
				Position: geo.Pt(1400, 10),
				Range:    486,
				Mode:     IntraArea,
			})
		}
		f.engine.Run(8 * time.Second)
		area := geo.NewRect(geo.Pt(1800, 0), 1900, 50, 90)
		routers[0].SendGeoBroadcast(area, []byte("flood"))
		f.engine.Run(10 * time.Second)
		return received
	}

	free := run(false)
	for a := geonet.Address(2); a <= 10; a++ {
		if !free[a] {
			t.Fatalf("attack-free flood missed node %d", a)
		}
	}
	attacked := run(true)
	darkened := 0
	for a := geonet.Address(2); a <= 10; a++ {
		if free[a] && !attacked[a] {
			darkened++
		}
	}
	if darkened < 3 {
		t.Fatalf("blockage darkened only %d nodes, want >= 3", darkened)
	}
	// Nodes west of the attacker still receive: the replay cannot
	// un-deliver what the source already broadcast.
	if !attacked[2] || !attacked[3] {
		t.Fatal("nodes near the source must still receive")
	}
}

func TestIntraAreaRHLRewrite(t *testing.T) {
	// Capture what the attacker actually transmits: the replay must carry
	// RHL 1 and still verify.
	f := newFixture()
	var replayed *geonet.Packet
	tap := &tapReceiver{onFrame: func(fr radio.Frame) {
		p, err := geonet.Unmarshal(fr.Payload)
		if err == nil && p.Type == geonet.TypeGeoBroadcast && fr.From == 0xA77AC4E2 {
			replayed = p
		}
	}}
	f.medium.Attach(500, 1, func() geo.Point { return geo.Pt(450, 0) }, tap, true)

	src := f.router(1, geo.Pt(0, 0), 486, nil)
	f.router(2, geo.Pt(300, 0), 486, nil)
	NewAttacker(Config{
		Engine:   f.engine,
		Medium:   f.medium,
		Position: geo.Pt(200, 0),
		Range:    486,
		Mode:     IntraArea,
	})
	f.engine.Run(5 * time.Second)
	area := geo.NewRect(geo.Pt(400, 0), 500, 50, 90)
	src.SendGeoBroadcast(area, []byte("w"))
	f.engine.Run(6 * time.Second)

	if replayed == nil {
		t.Fatal("no replay captured")
	}
	if replayed.Basic.RHL != 1 {
		t.Fatalf("replay RHL = %d, want 1", replayed.Basic.RHL)
	}
	if err := replayed.Verify(f.ca, f.engine.Now()); err != nil {
		t.Fatalf("RHL-rewritten replay failed verification: %v", err)
	}
}

func TestVariantReplaysUnmodifiedAtReducedPower(t *testing.T) {
	f := newFixture()
	var replayedRHL uint8
	var replayHeardAt []geonet.Address
	tap := &tapReceiver{onFrame: func(fr radio.Frame) {
		if fr.From != 0xA77AC4E2 {
			return
		}
		p, err := geonet.Unmarshal(fr.Payload)
		if err == nil {
			replayedRHL = p.Basic.RHL
		}
	}}
	f.medium.Attach(500, 1, func() geo.Point { return geo.Pt(205, 0) }, tap, true)

	src := f.router(1, geo.Pt(0, 0), 486, nil)
	near := f.router(2, geo.Pt(210, 0), 486, nil)
	farAway := f.router(3, geo.Pt(460, 0), 486, nil)
	NewAttacker(Config{
		Engine:      f.engine,
		Medium:      f.medium,
		Position:    geo.Pt(200, 0),
		Range:       486,
		ReplayRange: 20, // reaches only the tap and node 2
		Mode:        IntraAreaVariant,
	})
	f.engine.Run(5 * time.Second)
	area := geo.NewRect(geo.Pt(300, 0), 400, 50, 90)
	src.SendGeoBroadcast(area, []byte("w"))
	f.engine.Run(6 * time.Second)

	if replayedRHL == 0 || replayedRHL == 1 {
		t.Fatalf("variant replay RHL = %d, want the unmodified (decremented-by-source) value", replayedRHL)
	}
	// Node 2 (within 20 m of the attacker) got the duplicate and canceled;
	// node 3 did not hear the replay, so it was free to forward.
	if near.Stats().CBFCanceled != 1 {
		t.Fatalf("near node CBFCanceled = %d, want 1", near.Stats().CBFCanceled)
	}
	_ = farAway
	_ = replayHeardAt
}

func TestAttackerIgnoresOwnTraffic(t *testing.T) {
	// Two attackers side by side must not replay each other's replays in
	// a loop: the dedupe is by (source, timestamp) of the SIGNED beacon.
	f := newFixture()
	f.router(1, geo.Pt(0, 0), 486, nil)
	a1 := NewAttacker(Config{
		Engine: f.engine, Medium: f.medium, Pseudonym: 7001,
		Position: geo.Pt(100, 0), Range: 486, Mode: InterArea,
	})
	a2 := NewAttacker(Config{
		Engine: f.engine, Medium: f.medium, Pseudonym: 7002,
		Position: geo.Pt(120, 0), Range: 486, Mode: InterArea,
	})
	f.engine.Run(20 * time.Second)
	s1, s2 := a1.Stats(), a2.Stats()
	// Each beacon is replayed at most once per attacker even though each
	// hears the other's replays.
	sent := f.medium.Stats().Transmitted
	if s1.BeaconsReplayed+s2.BeaconsReplayed >= sent {
		t.Fatalf("replay storm: %d+%d replays of %d transmissions",
			s1.BeaconsReplayed, s2.BeaconsReplayed, sent)
	}
	if s1.BeaconsReplayed == 0 || s2.BeaconsReplayed == 0 {
		t.Fatal("attackers idle")
	}
}

func TestAttackerNoneModeInert(t *testing.T) {
	f := newFixture()
	f.router(1, geo.Pt(0, 0), 486, nil)
	atk := NewAttacker(Config{
		Engine: f.engine, Medium: f.medium,
		Position: geo.Pt(100, 0), Range: 486, Mode: None,
	})
	f.engine.Run(10 * time.Second)
	st := atk.Stats()
	if st.BeaconsReplayed != 0 || st.PacketsReplayed != 0 {
		t.Fatalf("None-mode attacker transmitted: %+v", st)
	}
}

// tapReceiver adapts a func to radio.Receiver/Overhearer.
type tapReceiver struct{ onFrame func(radio.Frame) }

func (t *tapReceiver) Deliver(f radio.Frame)  { t.onFrame(f) }
func (t *tapReceiver) Overhear(f radio.Frame) { t.onFrame(f) }

func TestForgedBeaconRejectedByAuthentication(t *testing.T) {
	// The negative control: a blackhole-style forger advertising a fake
	// position near the destination achieves NOTHING against the PKI —
	// every forged beacon fails verification, the victim's LocT stays
	// clean, and forwarding is unaffected.
	f := newFixture()
	delivered := false
	v1 := f.router(1, geo.Pt(0, 0), 486, nil)
	f.router(2, geo.Pt(400, 0), 486, nil)
	f.router(9, geo.Pt(800, 0), 486, func(p *geonet.Packet) { delivered = true })
	NewForgedBeaconAttacker(ForgedBeaconConfig{
		Engine:   f.engine,
		Medium:   f.medium,
		Position: geo.Pt(100, 0),
		Claim:    geo.Pt(790, 0), // "I am right next to the destination"
		Range:    486,
	})
	f.engine.Run(8 * time.Second)

	if v1.LocT().Lookup(geonet.Address(0xF0A6EDB7), f.engine.Now()) != nil {
		t.Fatal("forged beacon entered the victim's LocT despite authentication")
	}
	if v1.Stats().AuthFailures == 0 {
		t.Fatal("victim recorded no authentication failures: the forger is idle or its beacons verify")
	}
	v1.SendGeoUnicast(9, geo.Pt(800, 0), []byte("x"))
	f.engine.Run(10 * time.Second)
	if !delivered {
		t.Fatal("forwarding broken by a forger that should be inert")
	}
}

func TestForgedBeaconWithStolenEnrollmentWorks(t *testing.T) {
	// Sanity inversion: if the forger DID hold a valid enrolment (an
	// insider), the fake position would be accepted — confirming that the
	// PKI, not a plausibility check, is what stops the outsider forger.
	f := newFixture()
	victim := f.router(1, geo.Pt(0, 0), 486, nil)
	insider := f.ca.Enroll(security.StationID(666), 0)
	NewForgedBeaconAttacker(ForgedBeaconConfig{
		Engine:    f.engine,
		Medium:    f.medium,
		Pseudonym: 666,
		Position:  geo.Pt(100, 0),
		Claim:     geo.Pt(5000, 0),
		Range:     486,
		Signer:    insider,
	})
	f.engine.Run(5 * time.Second)
	e := victim.LocT().Lookup(666, f.engine.Now())
	if e == nil {
		t.Fatal("insider-signed beacon rejected")
	}
	if e.PV.Pos.DistanceTo(geo.Pt(5000, 0)) > 1 {
		t.Fatalf("claimed position not stored: %v", e.PV.Pos)
	}
}

func TestStatsAddCoversEveryField(t *testing.T) {
	// Stats.Add is how the experiment runner merges parallel runs; a
	// counter it misses would silently vanish from merged results. Fill
	// every field via reflection and require Add to carry all of them.
	var zero, filled Stats
	v := reflect.ValueOf(&filled).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	zero.Add(filled)
	if zero != filled {
		t.Fatalf("Stats.Add dropped counters: got %+v, want %+v", zero, filled)
	}
}

// beaconFeed drives an InterArea attacker's capture path directly with
// synthetic beacons from a churning population: perRound sources are in
// range at a time, each beacons once a second with its PV timestamp set
// to the current time and leaves after stay, when a source with a new
// address takes its place. Each replay carries the source and timestamp
// in its payload, so a tap can tell replays apart.
type beaconFeed struct {
	f        *fixture
	atk      *Attacker
	perRound int
	stay     time.Duration
	peak     int // largest beaconSeen.Len() seen after a capture
}

func newBeaconFeed(perRound int, stay time.Duration) *beaconFeed {
	f := newFixture()
	atk := NewAttacker(Config{
		Engine: f.engine, Medium: f.medium,
		Position: geo.Pt(0, 0), Range: 486, Mode: InterArea,
	})
	return &beaconFeed{f: f, atk: atk, perRound: perRound, stay: stay}
}

// capture hands the attacker one beacon of src stamped ts.
func (b *beaconFeed) capture(src geonet.Address, ts time.Duration) {
	payload := binary.BigEndian.AppendUint64(nil, uint64(src))
	payload = binary.BigEndian.AppendUint64(payload, uint64(ts))
	p := &geonet.Packet{Type: geonet.TypeBeacon, SourcePV: geonet.PositionVector{Addr: src, Timestamp: ts}}
	b.atk.captureBeacon(p, radio.Frame{Payload: payload})
	b.peak = max(b.peak, b.atk.beaconSeen.Len())
}

// run feeds one beacon round a second until the clock reaches until;
// each beacon is handed over by each(src, ts), which defaults to one
// capture.
func (b *beaconFeed) run(until time.Duration, each func(src geonet.Address, ts time.Duration)) {
	if each == nil {
		each = b.capture
	}
	stayRounds := int(b.stay / time.Second)
	for round := 0; time.Duration(round)*time.Second < until; round++ {
		now := time.Duration(round) * time.Second
		b.f.engine.Run(now)
		for slot := 0; slot < b.perRound; slot++ {
			// Slot s holds a new source every stayRounds rounds, the
			// slots staggered so sources leave one by one.
			gen := (round + slot*stayRounds/b.perRound) / stayRounds
			each(geonet.Address(1+gen*b.perRound+slot), now)
		}
	}
	b.f.engine.Run(until + time.Second)
}

// TestBeaconMemoryBounded: the attacker's per-source replay memory
// follows the population in range, not the length of the run. The same
// churning population, run for T and for 2T, peaks at the same size,
// within the sources heard in one memory window (doubled for the
// index's growth); T alone sees several times that many sources.
func TestBeaconMemoryBounded(t *testing.T) {
	const (
		perRound = 30
		stay     = 10 * time.Second
		T        = 240 * time.Second
	)
	inWindow := perRound * int(1+beaconMemory/stay)
	bound := 2 * inWindow
	var peaks [2]int
	for i, d := range []time.Duration{T, 2 * T} {
		b := newBeaconFeed(perRound, stay)
		b.run(d, nil)
		peaks[i] = b.peak
		if b.peak > bound {
			t.Errorf("run of %v: beaconSeen peaked at %d sources, want at most %d", d, b.peak, bound)
		}
	}
	if peaks[0] != peaks[1] {
		t.Errorf("beaconSeen peaked at %d sources in %v and %d in %v, want equal", peaks[0], T, peaks[1], 2*T)
	}
	if sources := perRound * int(T/stay); sources <= bound {
		t.Fatalf("the %v run sees only %d sources: it cannot tell a bounded memory from a growing one", T, sources)
	}
}

// TestBeaconReplayedOncePerTimestamp: each (source, PV timestamp) is
// replayed exactly once, however often it is captured and while the
// memory forgets silent sources. Every beacon is captured one to three
// times, some copies arriving after later beacons of other sources, and
// some sources' previous beacon is captured again after a newer one;
// neither kind of repeat is replayed.
func TestBeaconReplayedOncePerTimestamp(t *testing.T) {
	b := newBeaconFeed(30, 10*time.Second)
	type beacon struct {
		src geonet.Address
		ts  time.Duration
	}
	replays := make(map[beacon]int)
	tap := &tapReceiver{onFrame: func(f radio.Frame) {
		replays[beacon{geonet.Address(binary.BigEndian.Uint64(f.Payload)), time.Duration(binary.BigEndian.Uint64(f.Payload[8:]))}]++
	}}
	b.f.medium.Attach(77, 486, func() geo.Point { return geo.Pt(10, 0) }, tap, false)
	rng := rand.New(rand.NewPCG(5, 9))
	fresh := make(map[beacon]bool)
	var late []beacon
	var pruned bool
	b.run(240*time.Second, func(src geonet.Address, ts time.Duration) {
		n := b.atk.beaconSeen.Len()
		b.capture(src, ts)
		pruned = pruned || b.atk.beaconSeen.Len() < n
		fresh[beacon{src, ts}] = true
		switch rng.IntN(4) {
		case 0:
			b.capture(src, ts)
		case 1:
			late = append(late, beacon{src, ts})
		case 2:
			if ts > 0 {
				b.capture(src, ts-time.Second) // the previous beacon, again
			}
		}
		if len(late) > 0 && rng.IntN(3) == 0 {
			for _, l := range late {
				b.capture(l.src, l.ts)
			}
			late = late[:0]
		}
	})
	if !pruned {
		t.Fatal("the memory never forgot a source: the run does not exercise pruning")
	}
	for k, n := range replays {
		if n != 1 || !fresh[k] {
			t.Fatalf("beacon %+v replayed %d times (captured fresh: %v), want once", k, n, fresh[k])
		}
	}
	if len(replays) != len(fresh) {
		t.Fatalf("%d beacons replayed, %d captured", len(replays), len(fresh))
	}
	if st := b.atk.Stats(); st.BeaconsReplayed != uint64(len(fresh)) {
		t.Fatalf("BeaconsReplayed = %d, want %d", st.BeaconsReplayed, len(fresh))
	}
}

// TestBeaconReplayAllocs: once warm, a beacon's origination, its capture
// by the attacker, the replay and both deliveries allocate nothing.
func TestBeaconReplayAllocs(t *testing.T) {
	f := newFixture()
	tx := f.router(1, geo.Pt(0, 0), 486, nil)
	rx := f.router(2, geo.Pt(100, 0), 486, nil)
	atk := NewAttacker(Config{
		Engine: f.engine, Medium: f.medium,
		Position: geo.Pt(50, 0), Range: 486, Mode: InterArea,
	})
	round := func() {
		tx.SendBeacon()
		f.engine.Run(f.engine.Now() + 2*radio.Latency + DefaultProcessingDelay + time.Microsecond)
	}
	f.engine.Run(3 * time.Second) // both routers beacon; pools warm up
	round()
	before := atk.Stats().BeaconsReplayed
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("a beacon with its capture and replay allocates %.2f/op, want 0", allocs)
	}
	if got := atk.Stats().BeaconsReplayed - before; got < 201 {
		t.Fatalf("%d beacons replayed in 201 rounds, want each", got)
	}
	if rx.LocT().Lookup(1, f.engine.Now()) == nil {
		t.Fatal("receiver did not learn the beaconing router")
	}
}
