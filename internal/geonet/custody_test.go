package geonet

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
)

// movingNode lets tests reposition a router's node between engine runs.
type movingNode struct{ pos geo.Point }

func (m *movingNode) position() geo.Point { return m.pos }

// addMoving creates a router whose position the test controls.
func (w *world) addMoving(addr Address, start geo.Point, rangeM float64) (*Router, *movingNode) {
	w.t.Helper()
	m := &movingNode{pos: start}
	cfg := Config{
		Addr:     addr,
		Engine:   w.engine,
		Medium:   w.medium,
		Signer:   w.ca.Enroll(security.StationID(addr), 0),
		Verifier: w.ca,
		Position: m.position,
		Range:    rangeM,
		OnDeliver: func(p *Packet) {
			w.delivered[p.Key()] = append(w.delivered[p.Key()], addr)
		},
	}
	r := NewRouter(cfg)
	r.Start()
	w.routers[addr] = r
	return r, m
}

func TestRecustodyAfterHandback(t *testing.T) {
	// A carries the packet, hands it to B (apparently closer to the
	// target), B later finds A is the better hop and hands it back — A
	// must take custody again instead of dropping it as a duplicate, and
	// the split horizon keeps them from bouncing it instantly.
	w := newWorld(t)
	a := w.addNode(1, geo.Pt(100, 0), 500, nil)
	b := w.addNode(2, geo.Pt(150, 0), 500, nil)
	w.engine.Run(5 * time.Second)

	key := a.SendGeoUnicast(9, geo.Pt(4000, 0), nil) // far target, no route
	w.engine.Run(6 * time.Second)
	// A forwarded to B (B is 50 m closer to the target).
	if a.Stats().GFForwarded != 1 {
		t.Fatalf("A GFForwarded = %d, want 1", a.Stats().GFForwarded)
	}
	// B has no better candidate than A (split horizon excludes A, nothing
	// else exists): it buffers.
	if b.Stats().GFBuffered != 1 {
		t.Fatalf("B GFBuffered = %d, want 1 (split horizon must exclude A)", b.Stats().GFBuffered)
	}
	_ = key
}

func TestRecustodyCounterAdvances(t *testing.T) {
	// Directly exercise re-custody: deliver the same GUC to a relay twice
	// from different link senders; the second copy, arriving after the
	// relay's custody ended but within the packet lifetime, must be
	// re-processed, not discarded.
	w := newWorld(t)
	relay := w.addNode(2, geo.Pt(500, 0), 500, nil)
	src := w.addNode(1, geo.Pt(100, 0), 500, nil)
	w.engine.Run(5 * time.Second)

	p := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 8, LifetimeMs: 30000},
		Type:     TypeGeoUnicast,
		SN:       1,
		SourcePV: src.pv(),
		DestAddr: 9,
		DestPos:  geo.Pt(4000, 0),
	}
	p.Sign(src.cfg.Signer)
	wire := p.Marshal()

	relay.Deliver(radio.Frame{From: 1, To: 2, Payload: wire})
	if relay.Stats().GFBuffered != 1 {
		t.Fatalf("first copy not buffered: %+v", relay.Stats())
	}
	// While in custody, duplicates are ignored.
	relay.Deliver(radio.Frame{From: 7, To: 2, Payload: wire})
	if relay.Stats().Duplicates != 1 {
		t.Fatalf("in-custody duplicate not ignored: %+v", relay.Stats())
	}
	// A relay closer to the target appears; a buffer retry hands the
	// packet to it, which ends custody well within the 30 s lifetime.
	w.addNode(3, geo.Pt(900, 0), 500, nil)
	w.engine.Run(15 * time.Second)
	if relay.Stats().GFForwarded != 1 || relay.Stats().GFRetries == 0 {
		t.Fatalf("buffer retry did not forward: %+v", relay.Stats())
	}
	// A new copy after custody ended is re-accepted.
	relay.Deliver(radio.Frame{From: 7, To: 2, Payload: wire})
	if relay.Stats().GFRecustody != 1 {
		t.Fatalf("re-custody not taken: %+v", relay.Stats())
	}
}

func TestCopyPastLifetimeDroppedBeforeState(t *testing.T) {
	// A copy older than its packet lifetime is dead: the relay drops it
	// before the state lookup (no re-custody), counts it as expired, and
	// the next beacon tick forgets the packet's state.
	w := newWorld(t)
	relay := w.addNode(2, geo.Pt(500, 0), 500, nil)
	src := w.addNode(1, geo.Pt(100, 0), 500, nil)
	w.engine.Run(5 * time.Second)

	p := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 8, LifetimeMs: 30000},
		Type:     TypeGeoUnicast,
		SN:       1,
		SourcePV: src.pv(),
		DestAddr: 9,
		DestPos:  geo.Pt(4000, 0),
	}
	p.Sign(src.cfg.Signer)
	wire := p.Marshal()

	relay.Deliver(radio.Frame{From: 1, To: 2, Payload: wire})
	// No relay closer to the target exists: the buffer expires custody
	// only after the packet lifetime (30 s) has run out.
	w.engine.Run(40 * time.Second)
	if relay.Stats().GFExpired != 1 {
		t.Fatalf("buffer did not expire: %+v", relay.Stats())
	}
	if len(relay.state) != 0 {
		t.Fatalf("relay still holds %d packet states after the lifetime", len(relay.state))
	}
	relay.Deliver(radio.Frame{From: 7, To: 2, Payload: wire})
	if st := relay.Stats(); st.GFRecustody != 0 || st.GFExpired != 2 || st.GFBuffered != 1 {
		t.Fatalf("copy past its lifetime was not dropped as expired: %+v", st)
	}
	if len(relay.state) != 0 {
		t.Fatal("copy past its lifetime created a packet state")
	}
}

// TestPacketStateBoundedByLifetime: over a long CBF run the per-router
// packet state stays bounded by packet rate × lifetime (plus one beacon
// round of sweep lag), instead of growing with every packet ever seen.
func TestPacketStateBoundedByLifetime(t *testing.T) {
	const (
		rate     = 10 // packets per second
		lifetime = 10 * time.Second
		duration = 300 * time.Second
	)
	w := newWorld(t)
	for i := 0; i < 5; i++ {
		w.addNode(Address(i+1), geo.Pt(float64(i)*300, 0), 500, func(c *Config) { c.PacketLifetime = lifetime })
	}
	area := geo.NewRect(geo.Pt(600, 0), 800, 50, 90)
	src := w.routers[1]
	w.engine.Every(time.Second, time.Second/rate, "test.gbc", func() { src.SendGeoBroadcast(area, nil) })
	peak := 0
	w.engine.Every(time.Second, 250*time.Millisecond, "test.sample", func() {
		for _, r := range w.routers {
			peak = max(peak, len(r.state))
		}
	})
	w.engine.Run(duration)

	if got := w.routers[5].Stats().Delivered; got < rate*uint64(duration/time.Second)*9/10 {
		t.Fatalf("far node delivered only %d packets: the flood did not run", got)
	}
	sweepLag := DefaultBeaconInterval + DefaultBeaconJitter
	bound := rate*int((lifetime+sweepLag)/time.Second) + rate
	if peak > bound {
		t.Fatalf("peak packet states per router = %d, want <= %d (rate × (lifetime + sweep lag) + slack)", peak, bound)
	}
}

func TestVehicleExitMidFlood(t *testing.T) {
	// A node that leaves the simulation while holding a CBF contention
	// timer must not transmit afterwards.
	w := newWorld(t)
	src := w.addNode(1, geo.Pt(0, 0), 500, nil)
	leaver := w.addNode(2, geo.Pt(100, 0), 500, nil) // close => long TO (~80 ms)
	w.engine.Run(5 * time.Second)

	area := geo.NewRect(geo.Pt(300, 0), 400, 50, 90)
	src.SendGeoBroadcast(area, nil)
	w.engine.Run(5*time.Second + 10*time.Millisecond) // packet buffered, timer pending
	if leaver.Stats().CBFBuffered != 1 {
		t.Fatalf("leaver not contending: %+v", leaver.Stats())
	}
	leaver.Stop()
	w.engine.Run(7 * time.Second)
	if leaver.Stats().CBFForwarded != 0 {
		t.Fatal("stopped node re-broadcast from beyond the grave")
	}
}

func TestSourceEchoIgnored(t *testing.T) {
	// A replay of the source's own packet back at it must be ignored
	// entirely (no duplicate forwarding, no delivery).
	w := newWorld(t)
	src := w.addNode(1, geo.Pt(0, 0), 500, nil)
	w.addNode(2, geo.Pt(300, 0), 500, nil)
	w.engine.Run(5 * time.Second)
	area := geo.NewRect(geo.Pt(200, 0), 300, 50, 90)
	key := src.SendGeoBroadcast(area, nil)
	w.engine.Run(6 * time.Second)

	// Replay the source's own GBC back at it from a pseudonym.
	p := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 5, LifetimeMs: 30000},
		Type:     TypeGeoBroadcast,
		SN:       key.SN,
		SourcePV: src.pv(),
		Area:     area,
	}
	p.Sign(src.cfg.Signer)
	before := src.Stats()
	src.Deliver(radio.Frame{From: 666, To: radio.BroadcastID, Payload: p.Marshal()})
	after := src.Stats()
	if after.Delivered != before.Delivered || after.CBFBuffered != before.CBFBuffered {
		t.Fatalf("source processed an echo of its own packet: %+v -> %+v", before, after)
	}
}

func TestMovingNextHopStaleLoss(t *testing.T) {
	// The paper's attack-free loss mode: the chosen next hop drove out of
	// range after advertising its position.
	w := newWorld(t)
	src := w.addNode(1, geo.Pt(0, 0), 500, nil)
	_, mover := w.addMoving(2, geo.Pt(450, 0), 500)
	w.engine.Run(5 * time.Second) // src learns node 2 at x=450

	mover.pos = geo.Pt(800, 0) // drives out of range; beacons not yet refreshed
	src.SendGeoUnicast(9, geo.Pt(4000, 0), nil)
	w.engine.Run(5*time.Second + 100*time.Millisecond)

	if src.Stats().GFForwarded != 1 {
		t.Fatalf("GFForwarded = %d, want 1 (stale entry chosen)", src.Stats().GFForwarded)
	}
	if lost := w.medium.Stats().UnicastLost; lost != 1 {
		t.Fatalf("UnicastLost = %d, want 1 — the silent loss the paper exploits", lost)
	}
}
