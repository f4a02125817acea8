// Package radio models the shared vehicular wireless channel.
//
// The model is a unit-disk broadcast medium: a frame transmitted by a node
// with transmit range R is delivered, after a fixed access latency,
// to every other registered node within R meters — unless an obstruction
// blocks the line between transmitter and receiver. Communication ranges
// for DSRC and C-V2X come from the Utah DOT field test the paper uses
// (Table II).
//
// Unicast frames are addressed to a single link-layer destination; the
// medium still "airs" them, so promiscuous listeners (the attacker's
// sniffer) observe unicast traffic they are not addressed to, exactly as
// over-the-air capture works in practice.
package radio

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/sim"
	"github.com/vanetsec/georoute/internal/trace"
)

// Technology identifies the access-layer technology in use.
type Technology int

// Supported access technologies.
const (
	DSRC Technology = iota + 1
	CV2X
)

// String implements fmt.Stringer.
func (t Technology) String() string {
	switch t {
	case DSRC:
		return "DSRC"
	case CV2X:
		return "C-V2X"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// RangeClass selects which field-test percentile of the communication
// range to use (paper Table II).
type RangeClass int

// Range classes from the Utah DOT field test.
const (
	LoSMedian RangeClass = iota + 1
	NLoSMedian
	NLoSWorst
)

// String implements fmt.Stringer.
func (c RangeClass) String() string {
	switch c {
	case LoSMedian:
		return "LoS-median"
	case NLoSMedian:
		return "NLoS-median"
	case NLoSWorst:
		return "NLoS-worst"
	default:
		return fmt.Sprintf("RangeClass(%d)", int(c))
	}
}

// Range returns the communication range in meters for a technology and
// range class (paper Table II).
func Range(t Technology, c RangeClass) float64 {
	switch t {
	case DSRC:
		switch c {
		case LoSMedian:
			return 1283
		case NLoSMedian:
			return 486
		case NLoSWorst:
			return 327
		}
	case CV2X:
		switch c {
		case LoSMedian:
			return 1703
		case NLoSMedian:
			return 593
		case NLoSWorst:
			return 359
		}
	}
	panic(fmt.Sprintf("radio: no range for %v/%v", t, c))
}

// NodeID identifies a node on the medium. IDs are assigned by the caller
// and must be unique per medium.
type NodeID uint64

// BroadcastID is the link-layer broadcast destination.
const BroadcastID NodeID = 0xFFFFFFFFFFFFFFFF

// Frame is a link-layer frame in flight. Payload bytes are shared between
// all receivers; receivers must not mutate them, and must not retain them
// past the delivery callback — the medium reuses a payload buffer for
// later frames once its delivery event has run (SendPooled).
type Frame struct {
	From    NodeID
	To      NodeID // BroadcastID for broadcast
	Payload []byte
	TxPos   geo.Point     // the transmitter's synced position when it sent
	TxTime  time.Duration // when it was sent

	// Cache is the per-transmission decode/verify scratchpad shared by
	// every receiver of this frame. The medium attaches one to each frame
	// it delivers; the network layer (geonet.DecodeFrame) populates it on
	// first use so a broadcast fanning out to N receivers is decoded and
	// signature-checked once instead of N times. Nil on hand-built frames
	// — consumers must treat a missing cache as "decode yourself".
	Cache *FrameCache
}

// FrameCache carries the decode-once state of a single transmission. The
// medium owns and pools these: a cache is valid only for the duration of
// the frame's delivery walk, so receivers must not retain it. Whether the
// decoded packet may outlive the walk is the network layer's contract,
// since it may decode into Scratch (geonet.DecodeFrame decodes beacons
// there). The fields are typed loosely (any) so the radio layer stays
// independent of the network layer that interprets the bytes.
type FrameCache struct {
	// Scratch is decode storage the network layer keeps with the pooled
	// transmission. Unlike every other field it survives the reset at the
	// end of the delivery walk, so the next frame the transmission
	// carries can decode into it again without allocating.
	Scratch any

	// DecodeDone/Decoded/DecodeErr memoize the first decode of the frame
	// payload.
	DecodeDone bool
	Decoded    any
	DecodeErr  error
	// Protected aliases the signed region of the frame payload, recorded
	// at decode time so verification can run over the wire bytes without
	// re-serializing. Only valid while the frame is being delivered.
	Protected []byte

	// VerifyDone/Verifier/VerifiedAt/VerifyErr memoize the first
	// signature verification, keyed by the verifier instance and the
	// verification time (all receivers of one batched delivery share
	// both, so in practice this is one verify per transmission).
	VerifyDone bool
	Verifier   any
	VerifiedAt time.Duration
	VerifyErr  error
}

// IsBroadcast reports whether the frame was link-layer broadcast.
func (f Frame) IsBroadcast() bool { return f.To == BroadcastID }

// Receiver consumes frames delivered to a node. Deliver is called for
// frames addressed to the node or broadcast. Overhear is called on
// promiscuous nodes for every frame within range regardless of the
// link-layer destination (used by the attacker's sniffer).
type Receiver interface {
	Deliver(f Frame)
}

// Overhearer is implemented by receivers that also want promiscuous
// copies of frames not addressed to them.
type Overhearer interface {
	Overhear(f Frame)
}

// Obstruction blocks radio propagation between point pairs. Used for the
// blind-curve scenario where terrain blocks the two road ends.
type Obstruction interface {
	Blocks(a, b geo.Point) bool
}

// CircleObstruction blocks any link whose straight path passes through a
// disc (e.g. the hill inside a curve).
type CircleObstruction struct {
	Center geo.Point
	Radius float64
}

var _ Obstruction = CircleObstruction{}

// Blocks implements Obstruction.
func (o CircleObstruction) Blocks(a, b geo.Point) bool {
	// If either endpoint is inside the disc, the link is considered blocked
	// too; nodes are never placed inside obstructions in our scenarios.
	seg := geo.Segment{P1: a, P2: b}
	return seg.DistanceToPoint(o.Center) < o.Radius
}

// Stats aggregates medium-level counters for one run.
type Stats struct {
	Transmitted uint64 // frames sent
	Delivered   uint64 // (frame, receiver) deliveries
	Overheard   uint64 // promiscuous deliveries
	UnicastLost uint64 // unicast frames whose target was out of range
}

// PoolStats counts free-list reuse across the medium's three pools
// (delivery slices, transmissions, payload buffers). Each transmission
// embeds its frame's FrameCache, so the Cache counters count
// transmission reuse. A miss is a fresh
// allocation; after warm-up the hit ratio should approach 1, and the
// telemetry sampler exports both sides so a pool regression shows up as
// a climbing miss counter.
type PoolStats struct {
	DeliveryHits   uint64
	DeliveryMisses uint64
	CacheHits      uint64
	CacheMisses    uint64
	PayloadHits    uint64
	PayloadMisses  uint64
}

// Hits sums reuse hits across the three pools.
func (p PoolStats) Hits() uint64 { return p.DeliveryHits + p.CacheHits + p.PayloadHits }

// Misses sums fresh allocations across the three pools.
func (p PoolStats) Misses() uint64 { return p.DeliveryMisses + p.CacheMisses + p.PayloadMisses }

// Antenna is one node's attachment to the medium.
type Antenna struct {
	id     NodeID
	rangeM float64
	// rxRange extends reception sensitivity beyond the transmitter's
	// disk: a frame is received when the distance is within EITHER the
	// transmitter's range or the receiver's rxRange. Zero means the
	// transmitter's disk alone decides (the default for vehicles). The
	// attacker's pole-mounted high-gain sniffer sets this to its attack
	// range, which is how it captures beacons from farther away than
	// vehicles can hear each other (§III-B "the attacker-to-vehicle
	// communication range can be easily larger").
	rxRange float64
	pos     func() geo.Point
	recv    Receiver
	medium  *Medium
	// promiscuous nodes get Overhear callbacks for foreign frames.
	// extended antennas (rxRange > 0) live outside the grid on
	// Medium.extended and are considered for every frame. The three flags
	// share one word, which keeps an Antenna in the 112-byte size class.
	promiscuous bool
	removed     bool
	extended    bool

	// Spatial-index state. seq is the attach sequence number: every grid
	// bucket is kept sorted by it, and collect merges the buckets on it, so
	// delivery order matches the historical attach-order scan exactly. loc
	// is the position pos returned at the last Attach or SyncPositions: the
	// medium places, transmits from and hears the antenna there. cell is
	// the bucket loc.X falls in (unused while extended).
	seq  uint64
	loc  geo.Point
	cell int64
	// orderIdx is the antenna's slot in Medium.order, kept current by
	// swap-removal so Detach is O(1) even in 100k-node worlds. Nothing
	// order-sensitive iterates Medium.order (delivery order comes from
	// the seq-sorted buckets), so the slice is free to reorder.
	orderIdx int
}

// Range reports the transmit/receive range in meters.
func (a *Antenna) Range() float64 { return a.rangeM }

// SetRange adjusts transmit power, e.g. the attacker tuning its coverage.
func (a *Antenna) SetRange(m float64) {
	a.rangeM = m
	if !a.removed {
		a.medium.ensureCellSize(m)
	}
}

// SetRxRange sets the extended receiver sensitivity range (see rxRange).
func (a *Antenna) SetRxRange(m float64) {
	was := a.rxRange > 0
	a.rxRange = m
	if !a.removed {
		a.medium.reclassify(a, was)
	}
}

// Medium is the shared broadcast channel, one per simulation run. It is
// owned by exactly one engine and carries single-goroutine mutable state
// (grid, free pools, stats).
//
// Receiver lookup is served by a uniform grid bucketed along the road
// (X) axis: each antenna occupies the cell floor(x/cellSize), and a
// transmission only inspects the cells overlapping its reception reach
// plus one guard cell on each side. The cell size grows to the largest
// attached transmit range, so a query touches O(1) cells. Antennas with
// an extended receive range (the attacker's high-gain sniffer) can hear
// frames from arbitrarily far outside the transmitter's disk, so they
// bypass the grid and sit on the small `extended` list that every send
// checks. The grid is maintained incrementally on Attach/Detach and by
// SyncPositions, which movers (the traffic integrator, scripted
// scenario actors) call after updating positions. The medium sees each
// antenna where the last Attach or SyncPositions saw it.
type Medium struct {
	engine       *sim.Engine
	nodes        map[NodeID]*Antenna
	order        []*Antenna // all attached antennas; unordered (swap-removal), see Antenna.orderIdx
	obstructions []Obstruction
	edgeFactor   float64
	seed         uint64
	stats        Stats
	poolStats    PoolStats
	tracer       *trace.Tracer
	// inflight counts transmissions whose delivery event has not yet run —
	// the "frames on the air" gauge the telemetry sampler reads.
	inflight int

	// Spatial index over antenna positions. Each bucket is sorted by
	// Antenna.seq.
	cellSize  float64
	cells     map[int64][]*Antenna
	extended  []*Antenna // rxRange > 0: always candidate receivers
	attachSeq uint64

	// run is collect's scratch buffer: one bucket's (or one extended
	// antenna's) accepted receivers, in seq order, before they are merged
	// into the frame's receiver slice. It holds no antenna between frames.
	run []delivery

	// pool recycles receiver slices between frames. The engine is
	// single-threaded, so no synchronization is needed; a slice is grabbed
	// at SendPooled and returned when its delivery event has run.
	pool [][]delivery
	// txPool recycles per-transmission delivery records (each embedding
	// its frame's FrameCache) the same way.
	txPool []*transmission
	// payloadPool recycles marshal buffers handed out by GrabPayload and
	// reclaimed after a SendPooled frame's delivery event has run.
	payloadPool [][]byte
}

// delivery is one receiver's slot in a frame's batched delivery walk.
// seq copies rx.seq so that merging receiver runs compares slots without
// dereferencing the antenna.
type delivery struct {
	rx        *Antenna
	seq       uint64
	addressed bool
}

// Config parameterizes a Medium.
type Config struct {
	// Obstructions optionally block specific links.
	Obstructions []Obstruction
	// EdgeFactor softens the reception boundary: within range R the frame
	// is always received; between R and EdgeFactor·R reception probability
	// decays linearly to zero. The ranges in Table II are MEDIANS from a
	// field test, so a hard cutoff at exactly R is unphysical; the soft
	// edge makes a hop to a neighbor a few meters past R mostly succeed
	// while entries hundreds of meters out (the attack's poisoned ones)
	// still never deliver. The decision is a deterministic hash of
	// (seed, transmitter, receiver, send time), so paired attack-free and
	// attacked runs see identical edge outcomes for identical frames.
	// Zero selects DefaultEdgeFactor (the hard unit disk); values above 1
	// enable the soft edge (used by the edge-loss ablation).
	EdgeFactor float64
	// Seed salts the edge-decision hash.
	Seed uint64
	// Tracer, when non-nil, receives a lifecycle record for every unicast
	// frame the medium loses (target out of range or detached in flight).
	Tracer *trace.Tracer
}

// DefaultEdgeFactor is the reception model used when Config.EdgeFactor is
// zero: the hard unit disk, matching the paper's simulator. SoftEdgeFactor
// is the setting of the probabilistic-edge ablation.
const (
	DefaultEdgeFactor = 1.0
	SoftEdgeFactor    = 1.15
)

// Latency is the access + transmission delay between the send call and
// delivery at receivers: roughly the airtime of a 300-byte frame at
// 6 Mb/s including channel access.
const Latency = 500 * time.Microsecond

// NewMedium constructs a medium bound to the simulation engine.
func NewMedium(engine *sim.Engine, cfg Config) *Medium {
	if cfg.EdgeFactor == 0 {
		cfg.EdgeFactor = DefaultEdgeFactor
	}
	if cfg.EdgeFactor < 1 {
		panic(fmt.Sprintf("radio: edge factor %v below 1", cfg.EdgeFactor))
	}
	return &Medium{
		engine:       engine,
		nodes:        make(map[NodeID]*Antenna),
		obstructions: cfg.Obstructions,
		edgeFactor:   cfg.EdgeFactor,
		seed:         cfg.Seed,
		cells:        make(map[int64][]*Antenna),
		tracer:       cfg.Tracer,
	}
}

// edgeCoherence is the time bucket over which a marginal link keeps one
// up/down state. Shadowing is time-correlated: a station whose beacon was
// heard at 520 m will also deliver a data packet moments later. One
// bucket roughly spans a beacon round.
const edgeCoherence = 4 * time.Second

// receives decides whether a receiver at distance d hears a transmission
// whose nominal reception limit is `limit`, applying the soft edge. The
// link state is drawn per (from, to, time bucket), so outcomes are
// coherent within a bucket and identical between paired attack-free and
// attacked runs.
func (m *Medium) receives(d, limit float64, from, to NodeID, at time.Duration) bool {
	if d <= limit {
		return true
	}
	edge := float64(limit * m.edgeFactor)
	if d >= edge {
		return false
	}
	p := (edge - d) / (edge - limit)
	return m.edgeHash(from, to, uint64(at/edgeCoherence)) < p
}

// edgeHash maps a (from, to, bucket) triple to a deterministic uniform
// value in [0, 1).
func (m *Medium) edgeHash(from, to NodeID, bucket uint64) float64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(m.seed)
	put(uint64(from))
	put(uint64(to))
	put(bucket)
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// PoolStats returns a copy of the free-list reuse counters.
func (m *Medium) PoolStats() PoolStats { return m.poolStats }

// InFlight reports how many transmissions are scheduled but not yet
// delivered.
func (m *Medium) InFlight() int { return m.inflight }

// Attach registers a node and samples its position. The medium sees the
// node at that position, for sending and receiving, until SyncPositions
// samples it again, so movers must call SyncPositions after updating
// positions. promiscuous nodes receive Overhear callbacks for frames not
// addressed to them.
func (m *Medium) Attach(id NodeID, rangeM float64, pos func() geo.Point, recv Receiver, promiscuous bool) *Antenna {
	if _, dup := m.nodes[id]; dup {
		panic(fmt.Sprintf("radio: duplicate node id %d", id))
	}
	a := &Antenna{id: id, rangeM: rangeM, pos: pos, recv: recv, medium: m, promiscuous: promiscuous}
	a.seq = m.attachSeq
	m.attachSeq++
	m.nodes[id] = a
	a.orderIdx = len(m.order)
	m.order = append(m.order, a)
	m.ensureCellSize(rangeM)
	m.insertIndex(a)
	return a
}

// Detach removes a node (e.g. a vehicle leaving the road). In-flight
// frames scheduled for it are dropped at delivery time.
func (m *Medium) Detach(id NodeID) {
	a, ok := m.nodes[id]
	if !ok {
		return
	}
	a.removed = true
	delete(m.nodes, id)
	last := len(m.order) - 1
	if a.orderIdx != last {
		moved := m.order[last]
		m.order[a.orderIdx] = moved
		moved.orderIdx = a.orderIdx
	}
	m.order[last] = nil
	m.order = m.order[:last]
	m.removeIndex(a)
}

// minCellSize keeps the grid usable when only zero-range (receive-only)
// antennas are attached.
const minCellSize = 1.0

// ensureCellSize grows the grid cell width to at least r and rebuckets
// every gridded antenna, then restores each bucket's seq order (m.order
// is unordered). Growth happens at most a handful of times per run (when
// a longer-range node first attaches), so the O(N log N) rebucket is
// negligible.
func (m *Medium) ensureCellSize(r float64) {
	if r < minCellSize {
		r = minCellSize
	}
	if r <= m.cellSize {
		return
	}
	m.cellSize = r
	clear(m.cells)
	for _, a := range m.order {
		if a.extended {
			continue
		}
		a.cell = m.cellOf(a.loc.X)
		m.cells[a.cell] = append(m.cells[a.cell], a)
	}
	for _, bucket := range m.cells {
		slices.SortFunc(bucket, func(x, y *Antenna) int { return cmp.Compare(x.seq, y.seq) })
	}
}

func (m *Medium) cellOf(x float64) int64 {
	return int64(math.Floor(x / m.cellSize))
}

// insertIndex samples an antenna's position and places it into the grid
// (or the extended list when it has a widened receive range).
func (m *Medium) insertIndex(a *Antenna) {
	a.loc = a.pos()
	if a.rxRange > 0 {
		a.extended = true
		m.extended = append(m.extended, a)
		return
	}
	a.extended = false
	a.cell = m.cellOf(a.loc.X)
	m.addToCell(a)
}

// seqIndex returns the first position in the seq-sorted bucket whose
// antenna does not precede seq.
func seqIndex(bucket []*Antenna, seq uint64) int {
	return sort.Search(len(bucket), func(i int) bool { return bucket[i].seq >= seq })
}

// addToCell inserts a into bucket a.cell at its seq position. A fresh
// Attach carries the highest seq, so it lands at the end.
func (m *Medium) addToCell(a *Antenna) {
	bucket := m.cells[a.cell]
	m.cells[a.cell] = slices.Insert(bucket, seqIndex(bucket, a.seq+1), a)
}

func (m *Medium) removeIndex(a *Antenna) {
	if a.extended {
		for i, o := range m.extended {
			if o == a {
				m.extended = append(m.extended[:i], m.extended[i+1:]...)
				break
			}
		}
		return
	}
	m.removeFromCell(a)
}

// removeFromCell drops a from its bucket, keeping the rest in seq order
// (slices.Delete shifts the tail down and clears the vacated slot).
func (m *Medium) removeFromCell(a *Antenna) {
	bucket := m.cells[a.cell]
	if i := seqIndex(bucket, a.seq); i < len(bucket) && bucket[i] == a {
		bucket = slices.Delete(bucket, i, i+1)
	}
	if len(bucket) == 0 {
		delete(m.cells, a.cell)
	} else {
		m.cells[a.cell] = bucket
	}
}

// reclassify moves an antenna between the grid and the extended list
// when SetRxRange crosses zero.
func (m *Medium) reclassify(a *Antenna, wasExtended bool) {
	isExtended := a.rxRange > 0
	if isExtended == wasExtended {
		return
	}
	m.removeIndex(a)
	m.insertIndex(a)
}

// SyncPositions samples every antenna's position, the one the medium
// sends from and hears at until the next sync, and re-buckets each
// antenna whose X changed. Movers (the traffic integrator, scripted
// actors) call this after each position update; the cost is one position
// sample per antenna, far cheaper than the per-frame scans it replaces.
// Static nodes and join/leave churn need no syncing — Attach and Detach
// keep the index exact on their own.
func (m *Medium) SyncPositions() {
	for _, a := range m.order {
		x := a.loc.X
		a.loc = a.pos()
		if a.extended || a.loc.X == x {
			continue
		}
		if c := m.cellOf(a.loc.X); c != a.cell {
			m.removeFromCell(a)
			a.cell = c
			m.addToCell(a)
		}
	}
}

// Attached reports whether a node is currently registered.
func (m *Medium) Attached(id NodeID) bool {
	_, ok := m.nodes[id]
	return ok
}

// SendPooled transmits a frame from the given antenna and takes
// ownership of payload, which the caller must no longer touch: once the
// frame's delivery event has run, the buffer is reclaimed into the
// medium's marshal-buffer free list and will back a future frame. Pair
// with GrabPayload for an allocation-free marshal+transmit path. The
// receiver set is computed at send time from the synced positions
// (propagation is effectively instantaneous relative to vehicle motion);
// delivery callbacks run after the medium latency, batched into a single
// engine event that walks the receivers in attach order — exactly the
// order the historical one-event-per-receiver implementation produced.
func (m *Medium) SendPooled(from *Antenna, to NodeID, payload []byte) {
	if from.removed {
		m.releasePayload(payload)
		return
	}
	f := Frame{
		From:    from.id,
		To:      to,
		Payload: payload,
		TxPos:   from.loc,
		TxTime:  m.engine.Now(),
	}
	m.stats.Transmitted++

	targets, targetReached := m.collect(from, to, f.TxTime)
	if to != BroadcastID && !targetReached {
		// The unicast target was out of range or obstructed: the frame is
		// silently lost. This is the loss the inter-area interception
		// attack manufactures.
		m.stats.UnicastLost++
		m.tracer.Emit(trace.Record{At: f.TxTime, Node: uint64(from.id), Peer: uint64(to), Event: trace.EvUnicastLoss})
	}
	if len(targets) == 0 {
		m.releaseDelivery(targets)
		m.releasePayload(payload)
		return
	}
	t := m.grabTransmission()
	t.frame = f
	t.frame.Cache = &t.cache
	t.targets = targets
	t.targetReached = targetReached
	m.inflight++
	m.engine.Schedule(Latency, "radio.deliver", t.run)
}

// transmission is one frame's pending delivery event: the frame, its
// receiver set and its decode cache. The medium pools these, and each
// carries its delivery callback bound once at allocation, so scheduling
// a delivery allocates nothing.
type transmission struct {
	m             *Medium
	frame         Frame
	cache         FrameCache
	targets       []delivery
	targetReached bool
	run           func()
}

// fire is the delivery event: it walks the receivers, then returns the
// receiver slice, payload buffer and the transmission itself to their
// pools.
func (t *transmission) fire() {
	m := t.m
	m.inflight--
	m.deliver(t.frame, t.targets, t.targetReached)
	m.releasePayload(t.frame.Payload)
	t.frame = Frame{}
	t.cache = FrameCache{Scratch: t.cache.Scratch}
	t.targets = nil
	m.txPool = append(m.txPool, t)
}

// collect gathers the frame's receiver set from the synced positions:
// the grid cells within the transmitter's reach, plus one cell per side
// (see DESIGN.md), and every extended-range antenna. Candidates pass
// exactly the distance/edge/obstruction checks the linear scan applied.
// Each bucket is seq-sorted, so a bucket's accepted receivers form one
// seq-sorted run; merging every run (and each accepted extended antenna)
// into the sorted prefix yields the attach order in time linear in the
// receiver count.
func (m *Medium) collect(from *Antenna, to NodeID, at time.Duration) ([]delivery, bool) {
	targets := m.grabDelivery()
	targetReached := false
	run := m.run
	accept := func(rx *Antenna) {
		if !m.hears(from, rx, at) {
			return
		}
		run = append(run, delivery{rx: rx, seq: rx.seq, addressed: to == BroadcastID || to == rx.id})
		if to == rx.id {
			targetReached = true
		}
	}
	flush := func() {
		targets = mergeRun(targets, run)
		clear(run) // drop antenna references for the GC
		run = run[:0]
	}

	if m.cellSize > 0 {
		reach := float64(from.rangeM * m.edgeFactor)
		lo := m.cellOf(from.loc.X-reach) - 1
		hi := m.cellOf(from.loc.X+reach) + 1
		for c := lo; c <= hi; c++ {
			for _, rx := range m.cells[c] {
				accept(rx)
			}
			flush()
		}
	}
	for _, rx := range m.extended {
		accept(rx)
		flush()
	}
	m.run = run
	return targets, targetReached
}

// hears reports whether rx receives a frame that from sends now, both at
// their synced positions: the distance, soft-edge and obstruction checks
// of the linear scan.
func (m *Medium) hears(from, rx *Antenna, at time.Duration) bool {
	if rx.id == from.id {
		return false
	}
	limit := max(from.rangeM, rx.rxRange) // builtin: math.Max semantics, no call
	// Reject on the road-axis gap alone, before the Hypot, when it already
	// puts rx past both the disk and the soft edge. The decision is the
	// one receives would make: Hypot returns max·sqrt(1+(min/max)²), never
	// below |dx|. The gap must exceed limit strictly, because a receiver
	// at exactly the range on the same Y is received on the hard disk.
	dx := math.Abs(from.loc.X - rx.loc.X)
	if dx > limit && dx >= limit*m.edgeFactor {
		return false
	}
	if !inDisk(dx, math.Abs(from.loc.Y-rx.loc.Y), limit) &&
		!m.receives(from.loc.DistanceTo(rx.loc), limit, from.id, rx.id, at) {
		return false
	}
	return !m.blocked(from.loc, rx.loc)
}

// inDisk accepts, without the Hypot, a receiver whose axis gaps dx, dy
// (both non-negative) put it inside the disk of radius limit, where
// receives accepts without drawing the edge hash. The distance never
// exceeds dx + dy, and the 1e-12 margin covers the rounding of that sum
// and of Hypot, so whenever this accepts, Hypot(dx, dy) <= limit holds.
func inDisk(dx, dy, limit float64) bool {
	return dx+dy <= limit*(1-1e-12)
}

// mergeRun merges the seq-sorted run into the seq-sorted dst and returns
// the grown dst. It fills from the tail, so only the dst entries that
// sort after the run's head move, and a run that already follows dst is
// a plain append. Entries of equal seq (the grid's known duplicate, see
// DESIGN.md) keep dst's copy first.
func mergeRun(dst, run []delivery) []delivery {
	n := len(dst)
	dst = append(dst, run...)
	if n == 0 || len(run) == 0 || dst[n-1].seq <= run[0].seq {
		return dst
	}
	i, j := n-1, len(run)-1
	for w := len(dst) - 1; j >= 0; w-- {
		if i >= 0 && dst[i].seq > run[j].seq {
			dst[w] = dst[i]
			i--
		} else {
			dst[w] = run[j]
			j--
		}
	}
	return dst
}

// deliver is the batched delivery event for one frame. Per-receiver
// removed checks run here, at delivery time, so churn between send and
// delivery behaves exactly as the per-receiver events did.
func (m *Medium) deliver(f Frame, targets []delivery, targetReached bool) {
	unicastDelivered := false
	for _, d := range targets {
		if d.rx.removed {
			continue
		}
		if d.addressed {
			m.stats.Delivered++
			d.rx.recv.Deliver(f)
			if f.To == d.rx.id {
				unicastDelivered = true
			}
		} else if d.rx.promiscuous {
			if o, ok := d.rx.recv.(Overhearer); ok {
				m.stats.Overheard++
				o.Overhear(f)
			}
		}
	}
	if !f.IsBroadcast() && targetReached && !unicastDelivered {
		// The target was in range at send time but detached while the
		// frame was in flight: it never received the frame, so the frame
		// counts as lost, not delivered.
		m.stats.UnicastLost++
		m.tracer.Emit(trace.Record{At: m.engine.Now(), Node: uint64(f.From), Peer: uint64(f.To), Event: trace.EvUnicastLoss})
	}
	m.releaseDelivery(targets)
}

// grabDelivery takes a receiver slice from the free list. The pool is
// sync-free: the engine is single-threaded and a slice is only returned
// after its delivery event has run.
func (m *Medium) grabDelivery() []delivery {
	if n := len(m.pool); n > 0 {
		s := m.pool[n-1]
		m.pool = m.pool[:n-1]
		m.poolStats.DeliveryHits++
		return s
	}
	m.poolStats.DeliveryMisses++
	return make([]delivery, 0, 16)
}

func (m *Medium) releaseDelivery(s []delivery) {
	for i := range s {
		s[i] = delivery{} // drop antenna references for the GC
	}
	m.pool = append(m.pool, s[:0])
}

// grabTransmission takes a transmission (and with it the frame cache
// it embeds) from the free list. Like the delivery pool it is
// sync-free: transmissions are grabbed at SendPooled and returned by
// their own delivery event, all on the engine goroutine.
func (m *Medium) grabTransmission() *transmission {
	if n := len(m.txPool); n > 0 {
		t := m.txPool[n-1]
		m.txPool = m.txPool[:n-1]
		m.poolStats.CacheHits++
		return t
	}
	m.poolStats.CacheMisses++
	t := &transmission{m: m}
	t.run = t.fire
	return t
}

// GrabPayload returns an empty marshal buffer from the payload free
// list. Append the frame's wire encoding to it and hand it to SendPooled,
// which reclaims the buffer after delivery; buffers therefore converge on
// the size of the largest frames in flight.
func (m *Medium) GrabPayload() []byte {
	if n := len(m.payloadPool); n > 0 {
		b := m.payloadPool[n-1]
		m.payloadPool = m.payloadPool[:n-1]
		m.poolStats.PayloadHits++
		return b
	}
	m.poolStats.PayloadMisses++
	return make([]byte, 0, 256)
}

func (m *Medium) releasePayload(b []byte) {
	m.payloadPool = append(m.payloadPool, b[:0])
}

func (m *Medium) blocked(a, b geo.Point) bool {
	for _, o := range m.obstructions {
		if o.Blocks(a, b) {
			return true
		}
	}
	return false
}
