package geonet

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/sim"
	"github.com/vanetsec/georoute/internal/trace"
)

// Protocol defaults from EN 302 636-4-1 and the paper.
const (
	DefaultBeaconInterval = 3 * time.Second
	DefaultBeaconJitter   = 750 * time.Millisecond
	DefaultTOMin          = 1 * time.Millisecond
	DefaultTOMax          = 100 * time.Millisecond
	DefaultMaxHopLimit    = 32
	DefaultPacketLifetime = 60 * time.Second
	DefaultRetryInterval  = 1 * time.Second
)

// Stats are per-router protocol counters.
type Stats struct {
	BeaconsSent     uint64
	BeaconsReceived uint64
	Originated      uint64
	Delivered       uint64

	GFForwarded  uint64 // unicast next-hop transmissions
	GFPerimeter  uint64 // next-hop transmissions made in perimeter mode
	GFBuffered   uint64 // store-carry-forward buffer admissions
	GFRetries    uint64 // retry attempts from the buffer
	GFExpired    uint64 // packets dropped at lifetime end (GF buffer, LS queue, stale reception)
	GFFiltered   uint64 // candidates rejected by the forward filter
	GFRecustody  uint64 // re-accepted packets previously forwarded away
	CBFBuffered  uint64 // contention timers started
	CBFForwarded uint64 // contention timers that fired and re-broadcast
	CBFCanceled  uint64 // contentions canceled by duplicates
	CBFIgnored   uint64 // duplicates that did NOT cancel (mitigation)
	TSBForwarded uint64 // topological re-broadcasts (TSB and LS requests)
	LSRequests   uint64 // location-service lookups originated
	LSReplies    uint64 // location-service answers sent
	RHLExpired   uint64 // packets not forwarded because the RHL ran out
	Duplicates   uint64 // repeated receptions of known packets
	AuthFailures uint64 // signature/certificate rejections
	DecodeErrors uint64 // malformed frames

	// EchoesDropped counts receptions of the node's own packets (normally
	// impossible — the medium never loops a frame back — so in practice
	// these are attacker replays reaching their original source).
	EchoesDropped uint64
	// StopDropped counts packet copies still held (GF buffer, armed CBF
	// contention) when the router was stopped: the node left the road
	// carrying them.
	StopDropped uint64

	// Detected and FalseAlarms count misbehavior verdicts raised by this
	// node's plausibility monitor (see internal/detect), split by ground
	// truth. Tagged out of JSON so campaign artifacts stay byte-identical
	// with detection enabled or disabled.
	Detected    uint64 `json:"-"`
	FalseAlarms uint64 `json:"-"`
}

// Config parameterizes a Router. Zero values take the defaults above.
type Config struct {
	Addr     Address
	Engine   *sim.Engine
	Medium   *radio.Medium
	Signer   security.Signer
	Verifier security.Verifier

	// Position and Velocity sample the node's kinematic state. Velocity
	// may be nil for static nodes.
	Position func() geo.Point
	Velocity func() geo.Vector

	// Range is the node's communication range in meters; it is also
	// DIST_MAX in the CBF timeout formula.
	Range float64

	BeaconInterval time.Duration
	BeaconJitter   time.Duration
	LocTTTL        time.Duration
	// NeighborLifetime bounds how long after the last direct beacon an
	// entry stays eligible as a GF next hop. Defaults to one beacon round
	// (interval+jitter): a station that missed its latest beacon window is
	// no longer assumed reachable. Set >= LocTTTL for the literal standard
	// behavior where neighbor status lives as long as the entry.
	NeighborLifetime time.Duration
	TOMin            time.Duration
	TOMax            time.Duration
	MaxHopLimit      uint8
	PacketLifetime   time.Duration
	RetryInterval    time.Duration

	// UpdateLocTFromData mirrors the standard: source PVs of forwarded
	// packets refresh the LocT, not just beacons. Default true.
	UpdateLocTFromData *bool

	// Rand drives the router's stochastic choices (beacon jitter). When
	// nil a private PCG stream seeded from the address is used, making
	// each router's beacon schedule independent of global event ordering
	// — this keeps attack-free and attacked arms of an A/B experiment
	// perfectly paired.
	Rand *rand.Rand

	// OnDeliver is invoked once per packet delivered to the upper layer.
	OnDeliver func(p *Packet)

	// Forwarder selects the forwarding strategy by registry name (see
	// RegisterStrategy); empty means the default GF+CBF pair.
	Forwarder string

	// ForwardFilter and DuplicateRule are the mitigation hooks; nil means
	// standard-compliant behavior. They compose with any Forwarder: the
	// filter gates every strategy's next-hop candidates, the rule gates
	// every strategy's duplicate cancels.
	ForwardFilter ForwardFilter
	DuplicateRule DuplicateRule

	// Tracer, when non-nil, receives a lifecycle record for every packet
	// event at this router (see internal/trace). Nil keeps the receive
	// path allocation-free.
	Tracer *trace.Tracer

	// Monitor, when non-nil, is this node's misbehavior plausibility
	// monitor (see internal/detect). Like the Tracer it is a pure
	// observer with a nil fast path: nil keeps the receive path
	// allocation-free and monitors never influence forwarding.
	Monitor *detect.Monitor
}

// Router is one node's GeoNetworking engine. Create with NewRouter, wire
// it to the medium with Start, and tear it down with Stop when the node
// leaves the simulation.
type Router struct {
	cfg     Config
	antenna *radio.Antenna
	loct    *LocT
	stats   Stats

	// nextHop and contention are the strategy pair resolved from
	// cfg.Forwarder; per-router instances so policies may keep scratch
	// state.
	nextHop    NextHopPolicy
	contention ContentionPolicy

	state       map[Key]*pktState
	lsQueue     map[Address][]lsPending
	beaconTimer sim.Timer
	// beaconFn is r.beaconTick bound once at Start, so rescheduling the
	// beacon each round does not allocate a fresh method value.
	beaconFn    func()
	retryTimers map[*pending]sim.Timer
	// armFree is the router's pool of resolved contentions, linked
	// through cbfArm.next: a pointer, not a slice, keeps Router in its
	// size class (see TestRouterSizeClass).
	armFree *cbfArm
	// seq packs with the flags into one word.
	seq          uint16
	updateFromDa bool
	started      bool
	stopped      bool
	// cbfArmed counts packets currently holding an armed contention timer
	// (incremented when contend schedules one, decremented exactly once
	// when the contention resolves: fire, duplicate cancel, or Stop). A
	// plain int kept on the router so the telemetry sampler reads occupancy
	// without walking the state map.
	cbfArmed int
}

// pktState tracks per-packet progress at this node.
type pktState struct {
	// Word-sized fields lead and the flags pack behind them, keeping the
	// struct in the 48-byte size class.

	// expires is when the packet's lifetime ends (source timestamp plus
	// LifetimeMs). Later copies are dropped before the state lookup, so
	// beaconTick may forget the state from then on.
	expires time.Duration
	// prevHop is the link-layer sender we last accepted the packet from;
	// GF never hands the packet straight back to it (split horizon), which
	// keeps custody transfers between two carriers from livelocking.
	prevHop Address
	cbfDups int     // duplicate copies seen while the contention was armed
	cbfArm  *cbfArm // the armed contention, nil once resolved

	delivered bool
	// gfSeen marks the packet as having entered GF handling at least once.
	gfSeen bool
	// custody is true while the packet sits in this node's
	// store-carry-forward buffer; duplicates are ignored meanwhile.
	custody bool
	// tsbDone marks a topologically-flooded packet (TSB/LS request) as
	// already re-broadcast or intentionally not re-broadcast here.
	tsbDone bool
	// cbf contention fields.
	cbfSeen      bool
	cbfResolved  bool // forwarded, canceled, or not eligible
	cbfForwarded bool
	cbfFirstRHL  uint8
	cbfSendRHL   uint8
}

// cbfArm is one armed contention: the buffered copy held by value, its
// timer, and the fire callback bound once when the arm object is first
// created. Arms are pooled per router; fire, duplicate cancel and Stop
// all return them. Holding pkt by value is safe because neither send
// (which marshals into a fresh buffer) nor emit (which copies scalars)
// keeps &pkt past the call.
type cbfArm struct {
	r     *Router
	st    *pktState
	pkt   Packet
	timer sim.Timer
	fire  func()
	next  *cbfArm // free-list link while pooled
}

// pending is a store-carry-forward buffered packet.
type pending struct {
	pkt      *Packet
	deadline time.Duration
	target   geo.Point // GF target (dest position or area center)
	st       *pktState
}

var _ radio.Receiver = (*Router)(nil)

// NewRouter validates the configuration and constructs a router. The
// router is inert until Start.
func NewRouter(cfg Config) *Router {
	if cfg.Engine == nil || cfg.Medium == nil || cfg.Signer == nil || cfg.Verifier == nil {
		panic("geonet: Engine, Medium, Signer and Verifier are required")
	}
	if cfg.Position == nil {
		panic("geonet: Position is required")
	}
	if cfg.Range <= 0 {
		panic(fmt.Sprintf("geonet: non-positive range %v", cfg.Range))
	}
	if cfg.BeaconInterval == 0 {
		cfg.BeaconInterval = DefaultBeaconInterval
	}
	if cfg.BeaconJitter == 0 {
		cfg.BeaconJitter = DefaultBeaconJitter
	}
	if cfg.NeighborLifetime == 0 {
		cfg.NeighborLifetime = cfg.BeaconInterval + cfg.BeaconJitter
	}
	if cfg.TOMin == 0 {
		cfg.TOMin = DefaultTOMin
	}
	if cfg.TOMax == 0 {
		cfg.TOMax = DefaultTOMax
	}
	if cfg.MaxHopLimit == 0 {
		cfg.MaxHopLimit = DefaultMaxHopLimit
	}
	if cfg.PacketLifetime == 0 {
		cfg.PacketLifetime = DefaultPacketLifetime
	}
	if cfg.RetryInterval == 0 {
		cfg.RetryInterval = DefaultRetryInterval
	}
	strat, ok := LookupStrategy(cfg.Forwarder)
	if !ok {
		panic(fmt.Sprintf("geonet: unknown forwarder strategy %q (registered: %v)", cfg.Forwarder, StrategyNames()))
	}
	updateFromData := true
	if cfg.UpdateLocTFromData != nil {
		updateFromData = *cfg.UpdateLocTFromData
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewPCG(uint64(cfg.Addr), uint64(cfg.Addr)^0xda3e39cb94b95bdb))
	}
	return &Router{
		cfg:          cfg,
		loct:         NewLocT(cfg.LocTTTL, cfg.NeighborLifetime),
		nextHop:      strat.NewNextHop(),
		contention:   strat.NewContention(),
		state:        make(map[Key]*pktState),
		lsQueue:      make(map[Address][]lsPending),
		retryTimers:  make(map[*pending]sim.Timer),
		updateFromDa: updateFromData,
	}
}

// Addr reports the router's GeoNetworking address.
func (r *Router) Addr() Address { return r.cfg.Addr }

// LocT exposes the location table (tests, metrics, attacker-free
// diagnostics).
func (r *Router) LocT() *LocT { return r.loct }

// Stats returns a copy of the router counters.
func (r *Router) Stats() Stats { return r.stats }

// CBFArmed reports how many packets currently hold an armed
// contention-based-forwarding timer at this router.
func (r *Router) CBFArmed() int { return r.cbfArmed }

// GFBufferLen reports how many packets sit in the store-carry-forward
// (greedy-forwarding retry) buffer.
func (r *Router) GFBufferLen() int { return len(r.retryTimers) }

// Position reports the node's current position.
func (r *Router) Position() geo.Point { return r.cfg.Position() }

// Start attaches the router to the medium and begins beaconing. The
// first beacon is sent after a uniform random share of the beacon
// interval so that node beacons are desynchronized, as in a real network.
func (r *Router) Start() {
	if r.started {
		panic("geonet: router started twice")
	}
	r.started = true
	r.antenna = r.cfg.Medium.Attach(radio.NodeID(r.cfg.Addr), r.cfg.Range, r.cfg.Position, r, false)
	r.beaconFn = r.beaconTick
	first := time.Duration(r.cfg.Rand.Int64N(int64(r.cfg.BeaconInterval)))
	r.beaconTimer = r.cfg.Engine.Schedule(first, "geonet.beacon", r.beaconFn)
}

// Stop detaches from the medium and cancels all timers. Packet copies
// still held — the GF buffer, armed CBF contentions — are dropped with
// ReasonStopped: the node left the road carrying them.
func (r *Router) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.beaconTimer.Cancel()
	// Drain the holding states in key order so traced runs emit the Stop
	// drops deterministically (both maps iterate in random order).
	var held []*pending
	for pe, timer := range r.retryTimers {
		timer.Cancel()
		delete(r.retryTimers, pe)
		held = append(held, pe)
	}
	sortPending(held)
	for _, pe := range held {
		pe.st.custody = false
		r.drop(pe.pkt, 0, trace.ReasonStopped, trace.KindBuffer)
	}
	var armed []Key
	for k, st := range r.state {
		// Only unresolved contentions still hold an arm.
		if a := st.cbfArm; a != nil {
			a.timer.Cancel()
			r.releaseArm(a)
			st.cbfResolved = true
			r.cbfArmed--
			armed = append(armed, k)
		}
	}
	sortKeys(armed)
	for _, k := range armed {
		r.dropKey(k, trace.ReasonStopped, trace.KindArm)
	}
	r.cfg.Medium.Detach(radio.NodeID(r.cfg.Addr))
}

// sortPending orders buffered packets by end-to-end key.
func sortPending(ps []*pending) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i].pkt.Key(), ps[j].pkt.Key()
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.SN < b.SN
	})
}

// sortKeys orders packet keys by (source, sequence number).
func sortKeys(ks []Key) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].Src != ks[j].Src {
			return ks[i].Src < ks[j].Src
		}
		return ks[i].SN < ks[j].SN
	})
}

// send marshals p into a pooled medium buffer and transmits it: the
// zero-allocation counterpart of Send(..., p.Marshal()). The buffer is
// reclaimed by the medium after the frame's delivery event.
func (r *Router) send(to radio.NodeID, p *Packet) {
	buf := r.cfg.Medium.GrabPayload()
	r.cfg.Medium.SendPooled(r.antenna, to, p.AppendMarshal(buf))
}

// pv samples the node's current position vector.
func (r *Router) pv() PositionVector {
	var v geo.Vector
	if r.cfg.Velocity != nil {
		v = r.cfg.Velocity()
	}
	return PositionVector{
		Addr:      r.cfg.Addr,
		Timestamp: r.cfg.Engine.Now(),
		Pos:       r.cfg.Position(),
		Speed:     v.Length(),
		Heading:   v.Heading(),
	}
}

func (r *Router) beaconTick() {
	if r.stopped {
		return
	}
	r.SendBeacon()
	r.purgeLSQueue()
	r.purgeStates()
	next := r.cfg.BeaconInterval + time.Duration(r.cfg.Rand.Int64N(int64(r.cfg.BeaconJitter)))
	r.beaconTimer = r.cfg.Engine.Schedule(next, "geonet.beacon", r.beaconFn)
}

// SendBeacon broadcasts a single-hop beacon advertising the node's PV.
//
// The beacon is signed straight into the pooled wire buffer, so
// origination allocates nothing: p stays on the stack, and p.Signature
// aliases the buffer the medium reclaims after delivery. That is safe
// only because p is dropped here — emit copies scalars, not slices.
func (r *Router) SendBeacon() {
	p := &Packet{
		Basic:    BasicHeader{Version: protocolVersion, RHL: 1, LifetimeMs: uint32(r.cfg.BeaconInterval / time.Millisecond)},
		Type:     TypeBeacon,
		SourcePV: r.pv(),
	}
	r.stats.BeaconsSent++
	buf := r.cfg.Medium.GrabPayload()
	r.cfg.Medium.SendPooled(r.antenna, radio.BroadcastID, p.appendSignedMarshal(buf, r.cfg.Signer))
	r.emit(trace.EvTX, trace.KindBeacon, trace.ReasonNone, p, 0)
}

// SendGeoUnicast originates a GUC packet toward a destination node at a
// known position and routes it with GF. It returns the packet key for
// end-to-end tracking.
func (r *Router) SendGeoUnicast(dest Address, destPos geo.Point, payload []byte) Key {
	r.seq++
	p := &Packet{
		Basic: BasicHeader{
			Version:    protocolVersion,
			RHL:        r.cfg.MaxHopLimit,
			LifetimeMs: uint32(r.cfg.PacketLifetime / time.Millisecond),
		},
		Type:     TypeGeoUnicast,
		SN:       r.seq,
		SourcePV: r.pv(),
		DestAddr: dest,
		DestPos:  destPos,
		Payload:  payload,
	}
	p.Sign(r.cfg.Signer)
	r.stats.Originated++
	r.emit(trace.EvOriginate, trace.KindNone, trace.ReasonNone, p, 0)
	st := r.stateFor(p)
	st.gfSeen = true
	r.forwardGreedy(p, destPos, st)
	return p.Key()
}

// SendGeoBroadcast originates a GBC packet for the destination area. If
// the node is inside the area it seeds the CBF flood; otherwise the
// packet first travels toward the area with GF. It returns the packet key.
func (r *Router) SendGeoBroadcast(area geo.Area, payload []byte) Key {
	r.seq++
	p := &Packet{
		Basic: BasicHeader{
			Version:    protocolVersion,
			RHL:        r.cfg.MaxHopLimit,
			LifetimeMs: uint32(r.cfg.PacketLifetime / time.Millisecond),
		},
		Type:     TypeGeoBroadcast,
		SN:       r.seq,
		SourcePV: r.pv(),
		Area:     area,
		Payload:  payload,
	}
	p.Sign(r.cfg.Signer)
	r.stats.Originated++
	r.emit(trace.EvOriginate, trace.KindNone, trace.ReasonNone, p, 0)
	st := r.stateFor(p)
	if area.Contains(r.cfg.Position()) {
		// Source is inside the area: broadcast and never contend for this
		// packet again.
		st.cbfSeen = true
		st.cbfResolved = true
		st.cbfFirstRHL = p.Basic.RHL
		out := p.Fork()
		out.Basic.RHL--
		r.send(radio.BroadcastID, out)
		r.emit(trace.EvTX, trace.KindCBFSource, trace.ReasonNone, out, 0)
	} else {
		st.gfSeen = true
		r.forwardGreedy(p, area.Center(), st)
	}
	return p.Key()
}

// Deliver implements radio.Receiver: the router's frame ingress path.
// Decode and signature verification are shared across the frame's
// receivers via the transmission's FrameCache, so the returned packet is
// an immutable shared view — forwarding paths Fork it before mutating
// the basic header.
func (r *Router) Deliver(f radio.Frame) {
	if r.stopped {
		return
	}
	p, err := DecodeFrame(f)
	if err != nil {
		r.drop(nil, f.From, trace.ReasonDecodeFail, trace.KindNone)
		return
	}
	if err := VerifyFrame(f, p, r.cfg.Verifier, r.cfg.Engine.Now()); err != nil {
		// Forged or tampered: the security layer rejects it. Replays of
		// authentic messages pass — the paper's attacks live here.
		r.drop(p, f.From, trace.ReasonVerifyReject, trace.KindNone)
		return
	}
	if p.SourcePV.Addr == r.cfg.Addr {
		// Echo of our own packet (e.g. replayed by an attacker).
		if r.cfg.Monitor != nil {
			now := r.cfg.Engine.Now()
			tp, fa := r.cfg.Monitor.ObserveEcho(detect.Echo{
				Now:     now,
				From:    uint64(f.From),
				Beacon:  p.Type == TypeBeacon,
				Elapsed: now - p.SourcePV.Timestamp,
				Hops:    int(r.cfg.MaxHopLimit) - int(p.Basic.RHL),
			})
			r.stats.Detected += tp
			r.stats.FalseAlarms += fa
		}
		r.drop(p, f.From, trace.ReasonOwnEcho, trace.KindNone)
		return
	}
	now := r.cfg.Engine.Now()
	if p.Type != TypeBeacon && now > p.SourcePV.Timestamp+p.lifetime() {
		// Past its lifetime the packet is dead, and purgeStates may have
		// forgotten it: drop it before it touches the LocT or the state.
		r.drop(p, f.From, trace.ReasonLifetimeExpired, trace.KindNone)
		return
	}
	if p.Type == TypeBeacon || r.updateFromDa {
		// No plausibility check on the PV: the beacon may have been
		// relayed from far away (vulnerability #2 of the GF analysis).
		// The IS_NEIGHBOUR flag is derived from the PACKET TYPE alone, so
		// a relayed beacon marks its (possibly distant) source as a
		// direct neighbor.
		single := p.Type == TypeBeacon || p.Type == TypeSHB
		if r.cfg.Monitor != nil {
			tp, fa := r.cfg.Monitor.ObserveClaim(detect.Claim{
				Now:     now,
				From:    uint64(f.From),
				Src:     uint64(p.SourcePV.Addr),
				Pos:     p.SourcePV.Pos,
				TS:      p.SourcePV.Timestamp,
				RxPos:   r.cfg.Position(),
				RxRange: r.cfg.Range,
				Single:  single,
			})
			r.stats.Detected += tp
			r.stats.FalseAlarms += fa
		}
		r.loct.Update(p.SourcePV, now, single)
	}
	r.emit(trace.EvRX, trace.KindNone, trace.ReasonNone, p, f.From)

	switch p.Type {
	case TypeBeacon:
		r.stats.BeaconsReceived++
	case TypeGeoUnicast:
		r.handleGUC(p, f)
	case TypeGeoBroadcast:
		r.handleGBC(p, f)
	case TypeSHB:
		r.handleSHB(p)
	case TypeTSB:
		r.handleTSB(p)
	case TypeLSRequest:
		r.handleLSRequest(p, f)
	case TypeLSReply:
		r.handleLSReply(p, f)
	}
}

func (r *Router) stateFor(p *Packet) *pktState {
	k := p.Key()
	st, ok := r.state[k]
	if !ok {
		st = &pktState{expires: p.SourcePV.Timestamp + p.lifetime()}
		r.state[k] = st
	}
	return st
}

// purgeStates forgets packets past their lifetime that hold neither
// custody nor an armed contention. Deliver drops every later copy before
// the state lookup, so forgetting changes no decision, and the map stays
// bounded by packet rate × lifetime.
func (r *Router) purgeStates() {
	now := r.cfg.Engine.Now()
	for k, st := range r.state {
		if now > st.expires && !st.custody && st.cbfArm == nil {
			delete(r.state, k)
		}
	}
}

// deliverOnce hands p to the upper layer the first time and reports
// whether it did; duplicate accounting is the caller's job (the right
// reason depends on the transport type).
func (r *Router) deliverOnce(p *Packet, st *pktState) bool {
	if st.delivered {
		return false
	}
	st.delivered = true
	r.stats.Delivered++
	if r.cfg.OnDeliver != nil {
		r.cfg.OnDeliver(p)
	}
	return true
}

func (r *Router) handleGUC(p *Packet, f radio.Frame) {
	st := r.stateFor(p)
	if p.DestAddr == r.cfg.Addr {
		if r.deliverOnce(p, st) {
			r.emit(trace.EvDeliver, trace.KindNone, trace.ReasonNone, p, f.From)
		} else {
			r.drop(p, f.From, trace.ReasonDuplicate, trace.KindNone)
		}
		return
	}
	r.relayGreedy(p, f, st, p.DestPos)
}

// relayGreedy is the shared GF relay path for GUC packets and for GBC
// packets handled outside their destination area. A packet received again
// after we forwarded it away is a custody transfer back to us (our chosen
// next hop gave it up, typically from a store-carry-forward buffer), and
// we take it again; while it sits in our own buffer, duplicates are
// ignored. Without re-custody, any handover between two carriers would
// strand the packet — plain duplicate-discard only works for connected
// multi-hop paths. Loops stay bounded by the RHL.
func (r *Router) relayGreedy(p *Packet, f radio.Frame, st *pktState, target geo.Point) {
	if st.custody {
		r.drop(p, f.From, trace.ReasonDupCustody, trace.KindNone)
		return
	}
	if st.gfSeen {
		r.stats.GFRecustody++
	}
	st.gfSeen = true
	st.prevHop = Address(f.From)
	if p.Basic.RHL <= 1 {
		r.drop(p, f.From, trace.ReasonRHLExpired, trace.KindNone)
		return
	}
	out := p.Fork()
	out.Basic.RHL--
	r.forwardGreedy(out, target, st)
}

func (r *Router) handleGBC(p *Packet, f radio.Frame) {
	st := r.stateFor(p)
	inside := p.Area.Contains(r.cfg.Position())
	if inside {
		if r.deliverOnce(p, st) {
			// Informational: for GBC the copy lives on into contention,
			// which produces its disposition record.
			r.emit(trace.EvDeliver, trace.KindNone, trace.ReasonNone, p, f.From)
		} else {
			// Historical accounting: an in-area duplicate counts once here
			// and once in contend's resolution.
			r.stats.Duplicates++
		}
		r.contend(p, f, st)
		return
	}
	// Outside the area: we are a GF relay toward it.
	r.relayGreedy(p, f, st, p.Area.Center())
}

// contend runs the CBF state machine for an in-area GBC reception.
func (r *Router) contend(p *Packet, f radio.Frame, st *pktState) {
	if st.cbfSeen {
		// Second (or later) copy.
		if st.cbfResolved {
			r.drop(p, f.From, trace.ReasonDuplicate, trace.KindNone)
			return
		}
		st.cbfDups++
		cancels := r.cfg.DuplicateRule == nil || r.cfg.DuplicateRule.CancelsContention(st.cbfFirstRHL, p.Basic.RHL)
		if cancels {
			cancels = r.contention.CancelOnDuplicate(r, st.cbfFirstRHL, p.Basic.RHL, st.cbfDups)
		}
		if cancels {
			// Someone else re-broadcast first: discard the buffered packet
			// (vulnerability: no check of WHO that someone is).
			st.cbfResolved = true
			a := st.cbfArm
			a.timer.Cancel()
			r.releaseArm(a)
			r.cbfArmed--
			r.drop(p, f.From, trace.ReasonCBFCanceled, trace.KindArm)
		} else {
			r.drop(p, f.From, trace.ReasonDupIgnored, trace.KindNone)
		}
		return
	}
	st.cbfSeen = true
	st.cbfFirstRHL = p.Basic.RHL
	if p.Basic.RHL <= 1 {
		// Hop limit exhausted: deliver-only, never forward. The blockage
		// attack manufactures exactly this state at hop n+2.
		st.cbfResolved = true
		r.drop(p, f.From, trace.ReasonRHLExpired, trace.KindNone)
		return
	}
	if f.To != radio.BroadcastID {
		// We are the GF entry point into the area: re-broadcast without
		// contention delay.
		st.cbfResolved = true
		out := p.Fork()
		out.Basic.RHL--
		r.stats.CBFForwarded++
		r.send(radio.BroadcastID, out)
		r.emit(trace.EvTX, trace.KindCBFEntry, trace.ReasonNone, out, 0)
		return
	}
	st.cbfSendRHL = p.Basic.RHL - 1
	to := r.contention.Timeout(r, p, Address(f.From))
	r.stats.CBFBuffered++
	r.emit(trace.EvCBFArm, trace.KindArm, trace.ReasonNone, p, f.From)
	r.cbfArmed++
	a := r.grabArm(st, p)
	a.timer = r.cfg.Engine.Schedule(to, "geonet.cbf", a.fire)
}

// grabArm takes an arm from the pool, or creates one and binds its fire
// callback, and loads the buffered copy of p into it.
func (r *Router) grabArm(st *pktState, p *Packet) *cbfArm {
	a := r.armFree
	if a != nil {
		r.armFree = a.next
		a.next = nil
	} else {
		a = &cbfArm{r: r}
		a.fire = a.run
	}
	a.st = st
	a.pkt = *p
	st.cbfArm = a
	return a
}

// releaseArm detaches a resolved arm from its state and pools it. The
// reset drops the buffered packet, so pooled arms pin no decoded frame.
func (r *Router) releaseArm(a *cbfArm) {
	a.st.cbfArm = nil
	*a = cbfArm{r: r, fire: a.fire, next: r.armFree}
	r.armFree = a
}

// run is the contention timeout: no duplicate canceled the arm, so the
// buffered copy is re-broadcast.
func (a *cbfArm) run() {
	r, st := a.r, a.st
	st.cbfResolved = true
	st.cbfForwarded = true
	r.cbfArmed--
	a.pkt.Basic.RHL = st.cbfSendRHL
	r.stats.CBFForwarded++
	r.send(radio.BroadcastID, &a.pkt)
	r.emit(trace.EvTX, trace.KindCBFFire, trace.ReasonNone, &a.pkt, 0)
	r.releaseArm(a)
}

// forwardGreedy runs the next-hop selection for p toward target. With
// no eligible neighbor the packet enters the store-carry-forward buffer.
func (r *Router) forwardGreedy(p *Packet, target geo.Point, st *pktState) {
	if r.trySendGreedy(p, target, st, trace.KindGF) {
		return
	}
	r.buffer(p, target, st)
}

// trySendGreedy attempts one strategy-selected transmission; it reports
// success. kind distinguishes receive-time forwarding from buffer-retry
// forwarding in the trace; a first-reception hop made in perimeter mode
// (a recovery strategy rewrote p.Ext) is recorded as KindPerimeter.
func (r *Router) trySendGreedy(p *Packet, target geo.Point, st *pktState, kind trace.Kind) bool {
	next, ok := r.nextHop.NextHop(r, p, target, st.prevHop)
	if !ok {
		return false
	}
	if p.Ext.Mode == ExtModePerimeter {
		r.stats.GFPerimeter++
		if kind == trace.KindGF {
			kind = trace.KindPerimeter
		}
	}
	r.stats.GFForwarded++
	r.send(radio.NodeID(next), p)
	r.emit(trace.EvTX, kind, trace.ReasonNone, p, radio.NodeID(next))
	return true
}

// buffer admits p to the store-carry-forward buffer and schedules
// retries until the packet lifetime runs out.
func (r *Router) buffer(p *Packet, target geo.Point, st *pktState) {
	pe := &pending{
		pkt:      p,
		deadline: r.cfg.Engine.Now() + p.lifetime(),
		target:   target,
		st:       st,
	}
	st.custody = true
	r.stats.GFBuffered++
	r.emit(trace.EvGFBuffer, trace.KindBuffer, trace.ReasonNone, p, 0)
	r.scheduleRetry(pe)
}

func (r *Router) scheduleRetry(pe *pending) {
	r.retryTimers[pe] = r.cfg.Engine.Schedule(r.cfg.RetryInterval, "geonet.gfretry", func() {
		delete(r.retryTimers, pe)
		if r.stopped {
			return
		}
		if r.cfg.Engine.Now() > pe.deadline {
			pe.st.custody = false
			r.drop(pe.pkt, 0, trace.ReasonGFExpired, trace.KindBuffer)
			return
		}
		r.stats.GFRetries++
		if r.trySendGreedy(pe.pkt, pe.target, pe.st, trace.KindGFRetry) {
			pe.st.custody = false
			return
		}
		r.scheduleRetry(pe)
	})
}
