// Package attack implements the paper's two outsider attacks against
// GeoNetworking forwarding.
//
// The attacker is a stationary roadside node with a promiscuous sniffer.
// It holds no CA enrolment and therefore cannot sign or modify any
// integrity-protected field; everything it does is capture-and-replay:
//
//   - Inter-area interception (§III-B): every beacon it hears is
//     re-broadcast verbatim after a small processing delay. Vehicles that
//     receive the replay record the (authentic, signed) position vector of
//     an out-of-range vehicle as a direct neighbor and later forward
//     packets to it — into the void.
//
//   - Intra-area blockage (§III-C): every GeoBroadcast data packet it
//     hears is re-broadcast once, with the unprotected Remaining Hop Limit
//     rewritten to 1. Contending candidate forwarders treat the replay as
//     proof that another forwarder won and discard their buffered copy;
//     fresh receivers decrement the RHL to zero and never forward. The
//     Spot-2 variant replays without modification at reduced transmit
//     power, reaching only the candidate forwarders.
package attack

import (
	"time"

	"github.com/vanetsec/georoute/addrtab"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/sim"
	"github.com/vanetsec/georoute/internal/trace"
)

// Type selects the attack behavior.
type Type int

// Attack types.
const (
	None Type = iota
	InterArea
	IntraArea
	IntraAreaVariant // Spot-2: unmodified replay at tuned power
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case None:
		return "none"
	case InterArea:
		return "inter-area-interception"
	case IntraArea:
		return "intra-area-blockage"
	case IntraAreaVariant:
		return "intra-area-blockage-variant"
	default:
		return "unknown"
	}
}

// DefaultProcessingDelay is the attacker's capture-to-air processing
// time. The paper argues the attack window is TO_MIN (1 ms): a replay
// must reach the candidate forwarders before the earliest legitimate
// re-broadcast, which is one TO_MIN plus one link latency after the
// original transmission (§III-C, "a time window of 1 ms is enough").
// With the medium's 500 µs link latency charged on both the capture and
// the replay leg, a 300 µs processing delay lands the replay ~1.3 ms
// after the original broadcast — inside that window, as the paper
// assumes ("the attacker is able to process packets no slower than
// legitimate vehicles", which buffer for at least TO_MIN before
// re-broadcasting).
const DefaultProcessingDelay = 300 * time.Microsecond

// DefaultPseudonym is the link-layer identity used for replays when
// Config.Pseudonym is zero. Detection ground-truth labeling compares
// verdict suspects against it.
const DefaultPseudonym radio.NodeID = 0xA77AC4E2

// Stats counts attacker activity.
type Stats struct {
	BeaconsCaptured uint64
	BeaconsReplayed uint64
	PacketsCaptured uint64
	PacketsReplayed uint64
	DecodeErrors    uint64
}

// Add accumulates another run's counters into s. Mergers (the parallel
// experiment runner) must use this instead of copying fields one by one,
// so counters added later cannot be silently dropped from merged results.
func (s *Stats) Add(o Stats) {
	s.BeaconsCaptured += o.BeaconsCaptured
	s.BeaconsReplayed += o.BeaconsReplayed
	s.PacketsCaptured += o.PacketsCaptured
	s.PacketsReplayed += o.PacketsReplayed
	s.DecodeErrors += o.DecodeErrors
}

// Config parameterizes an Attacker.
type Config struct {
	Engine *sim.Engine
	Medium *radio.Medium
	// Pseudonym is the link-layer identity used for replays. Any value
	// not colliding with a legitimate node works; the receivers never
	// check it against the signed source.
	Pseudonym radio.NodeID
	// Position is the sniffer location (stationary per the threat model).
	Position geo.Point
	// Range is the attack transmit range in meters (tuned via TX power,
	// up to the LoS median per the paper).
	Range float64
	// ReplayRange, when non-zero, overrides Range for replayed frames —
	// the Spot-2 variant's power control.
	ReplayRange float64
	// ProcessingDelay is capture-to-replay latency; default 1 ms.
	ProcessingDelay time.Duration
	// Mode selects the attack.
	Mode Type
	// Tracer, when non-nil, records each fresh capture and each replay.
	Tracer *trace.Tracer
}

// Attacker is the roadside adversary. Construct with NewAttacker; it
// attaches to the medium immediately and runs for the rest of the world.
type Attacker struct {
	cfg     Config
	antenna *radio.Antenna
	stats   Stats

	// beaconSeen holds, by source, the PV timestamp of the last beacon
	// replayed: a beacon is replayed iff its timestamp is newer, so each
	// fresh beacon is replayed exactly once. Sources silent for longer
	// than beaconMemory are dropped before the table would grow, so it
	// holds the sources in range, however long the run.
	beaconSeen addrtab.Table[geonet.Address, time.Duration]
	// replayFree pools the beacon replays that have fired, linked
	// through replay.next.
	replayFree *replay
	// pktSeen dedupes data-packet replays: the attack fires on the first
	// copy of each packet (hop n) and ignores later rebroadcasts.
	pktSeen map[geonet.Key]bool
}

// beaconMemory is how long the attacker remembers a silent source. The
// medium delivers a transmission once, so a beacon is never captured
// again after its delivery, and forgetting a source changes no decision:
// the source's next beacon is newer than any it sent before. The window
// only has to outlast a delivery; it is the LocT entry lifetime, after
// which a silent source has also left every receiver's table.
const beaconMemory = geonet.DefaultLocTTTL

// replay is a captured beacon waiting out the processing delay: a copy
// of its frame and the callback that sends it, bound once when the
// record is made. Fired records return to the attacker's pool, as the
// router pools its contention arms, so a warm capture-and-replay
// allocates nothing.
type replay struct {
	a       *Attacker
	src     geonet.Address
	payload []byte
	fire    func()
	next    *replay // pool link
}

var (
	_ radio.Receiver   = (*Attacker)(nil)
	_ radio.Overhearer = (*Attacker)(nil)
)

// NewAttacker deploys the attacker on the medium.
func NewAttacker(cfg Config) *Attacker {
	if cfg.Engine == nil || cfg.Medium == nil {
		panic("attack: Engine and Medium are required")
	}
	if cfg.Pseudonym == 0 {
		cfg.Pseudonym = DefaultPseudonym // arbitrary non-colliding default
	}
	if cfg.ProcessingDelay == 0 {
		cfg.ProcessingDelay = DefaultProcessingDelay
	}
	a := &Attacker{
		cfg:     cfg,
		pktSeen: make(map[geonet.Key]bool),
	}
	pos := cfg.Position
	a.antenna = cfg.Medium.Attach(cfg.Pseudonym, cfg.Range, func() geo.Point { return pos }, a, true)
	// The pole-mounted sniffer's receive sensitivity matches its attack
	// range, so a large attack range also widens the capture zone.
	a.antenna.SetRxRange(cfg.Range)
	return a
}

// Stats returns a copy of the attacker counters.
func (a *Attacker) Stats() Stats { return a.stats }

// Deliver implements radio.Receiver (broadcast frames).
func (a *Attacker) Deliver(f radio.Frame) { a.sniff(f) }

// Overhear implements radio.Overhearer (foreign unicast frames).
func (a *Attacker) Overhear(f radio.Frame) { a.sniff(f) }

// sniff is the capture path shared by both attacks. It rides the same
// decode-once frame cache as the legitimate receivers: by the time the
// sniffer sees a broadcast, some router in range has usually decoded it
// already, so capture costs a cache lookup.
func (a *Attacker) sniff(f radio.Frame) {
	if a.cfg.Mode == None {
		return
	}
	p, err := geonet.DecodeFrame(f)
	if err != nil {
		a.stats.DecodeErrors++
		return
	}
	switch {
	case p.Type == geonet.TypeBeacon && a.cfg.Mode == InterArea:
		a.captureBeacon(p, f)
	case p.Type == geonet.TypeGeoBroadcast &&
		(a.cfg.Mode == IntraArea || a.cfg.Mode == IntraAreaVariant):
		a.capturePacket(p)
	}
}

// emit records a fresh capture (dedupe already passed).
func (a *Attacker) emit(ev trace.Event, p *geonet.Packet) {
	if a.cfg.Tracer == nil {
		return
	}
	a.cfg.Tracer.Emit(trace.Record{
		At:    a.cfg.Engine.Now(),
		Node:  uint64(a.cfg.Pseudonym),
		Src:   uint64(p.SourcePV.Addr),
		SN:    p.SN,
		Event: ev,
		PType: trace.PType(p.Type),
		RHL:   p.Basic.RHL,
	})
}

// emitReplay records a replay transmission at fire time.
func (a *Attacker) emitReplay(src geonet.Address, sn uint16, pt trace.PType, rhl uint8) {
	if a.cfg.Tracer == nil {
		return
	}
	a.cfg.Tracer.Emit(trace.Record{
		At:    a.cfg.Engine.Now(),
		Node:  uint64(a.cfg.Pseudonym),
		Src:   uint64(src),
		SN:    sn,
		Event: trace.EvReplay,
		PType: pt,
		RHL:   rhl,
	})
}

// captureBeacon relays a captured beacon verbatim. The signed position
// vector is untouched, so receivers accept it; only the link-layer sender
// changes (to the attacker's pseudonym), which nothing checks.
func (a *Attacker) captureBeacon(p *geonet.Packet, f radio.Frame) {
	a.stats.BeaconsCaptured++
	src, ts := p.SourcePV.Addr, p.SourcePV.Timestamp
	last := a.beaconSeen.Get(src)
	if last != nil && ts <= *last {
		return
	}
	if last == nil {
		if a.beaconSeen.Full() {
			now := a.cfg.Engine.Now()
			a.beaconSeen.Sweep(func(seen *time.Duration) bool { return now-*seen <= beaconMemory })
		}
		last = new(time.Duration)
		a.beaconSeen.Put(src, last)
	}
	*last = ts
	a.emit(trace.EvCapture, p)
	// The frame's payload buffer is recycled after this delivery walk,
	// and so is p, which decoded into the transmission's scratch packet:
	// the capture copies the payload — into a pooled buffer the replay
	// returns — and keeps only the source address of p.
	r := a.replayFree
	if r != nil {
		a.replayFree = r.next
		r.next = nil
	} else {
		r = &replay{a: a}
		r.fire = r.run
	}
	r.src = src
	r.payload = append(a.cfg.Medium.GrabPayload(), f.Payload...)
	a.cfg.Engine.Schedule(a.cfg.ProcessingDelay, "attack.replayBeacon", r.fire)
}

// run sends the replay and returns the record to the pool.
func (r *replay) run() {
	a := r.a
	a.stats.BeaconsReplayed++
	a.cfg.Medium.SendPooled(a.antenna, radio.BroadcastID, r.payload)
	a.emitReplay(r.src, 0, trace.PTBeacon, 1)
	*r = replay{a: a, fire: r.fire, next: a.replayFree}
	a.replayFree = r
}

// capturePacket replays a captured GeoBroadcast once. In IntraArea mode
// the RHL is rewritten to 1 (possible because the basic header is outside
// the signature); in IntraAreaVariant mode the packet is untouched and
// the transmit power reduced instead.
func (a *Attacker) capturePacket(p *geonet.Packet) {
	a.stats.PacketsCaptured++
	k := p.Key()
	if a.pktSeen[k] {
		return
	}
	a.pktSeen[k] = true
	a.emit(trace.EvCapture, p)
	// Fork, not Clone: the attack rewrites only the unprotected basic
	// header, so the replay shares the captured packet's protected bytes.
	out := p.Fork()
	if a.cfg.Mode == IntraArea {
		out.Basic.RHL = 1
	}
	a.cfg.Engine.Schedule(a.cfg.ProcessingDelay, "attack.replayPacket", func() {
		a.stats.PacketsReplayed++
		a.emitReplay(out.SourcePV.Addr, out.SN, trace.PType(out.Type), out.Basic.RHL)
		payload := out.AppendMarshal(a.cfg.Medium.GrabPayload())
		if a.cfg.ReplayRange > 0 {
			prev := a.antenna.Range()
			a.antenna.SetRange(a.cfg.ReplayRange)
			a.cfg.Medium.SendPooled(a.antenna, radio.BroadcastID, payload)
			a.antenna.SetRange(prev)
			return
		}
		a.cfg.Medium.SendPooled(a.antenna, radio.BroadcastID, payload)
	})
}
