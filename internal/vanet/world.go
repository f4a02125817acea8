// Package vanet assembles complete simulated worlds: a discrete-event
// engine, a shared radio medium, a simulated PKI, an IDM traffic network,
// and a GeoNetworking router on every vehicle. The experiment harness,
// the showcase scenarios and the runnable examples all build on it.
package vanet

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/sim"
	"github.com/vanetsec/georoute/internal/telemetry"
	"github.com/vanetsec/georoute/internal/trace"
	"github.com/vanetsec/georoute/internal/traffic"
)

// VehicleAddrBase offsets traffic vehicle IDs into the GeoNetworking
// address space, leaving low addresses for static infrastructure.
const VehicleAddrBase geonet.Address = 1000

// Well-known static node addresses used by the experiments.
const (
	WestDestAddr geonet.Address = 1 // 20 m west of the road start
	EastDestAddr geonet.Address = 2 // 20 m east of the road end
	RSUAddrBase  geonet.Address = 100
)

// Config parameterizes a World.
type Config struct {
	Seed uint64

	// Tech and RangeClass select the vehicle communication range
	// (Table II); the paper's default is the NLoS median.
	Tech       radio.Technology
	RangeClass radio.RangeClass

	Road          traffic.RoadConfig
	SpawnGap      float64
	Prepopulate   bool
	SpawnDisabled bool

	// Router knobs propagated to every vehicle stack.
	LocTTTL          time.Duration
	NeighborLifetime time.Duration
	MaxHopLimit      uint8
	PacketLifetime   time.Duration
	// Forwarder selects the forwarding strategy by registry name for
	// every router in the world ("" = the standard GF+CBF pair).
	Forwarder     string
	ForwardFilter geonet.ForwardFilter
	DuplicateRule geonet.DuplicateRule

	// EdgeFactor overrides the medium's soft reception edge (0 = default,
	// 1.0 = hard unit disk).
	EdgeFactor float64

	// OnDeliver observes every upper-layer delivery in the world,
	// identified by the receiving node's address.
	OnDeliver func(addr geonet.Address, p *geonet.Packet)

	// Tracer, when non-nil, is threaded into the radio medium and every
	// router stack, recording each packet's lifecycle (see internal/trace).
	Tracer *trace.Tracer

	// Telemetry, when non-nil, receives runtime-health samples (queue
	// depth, events/sec, CBF occupancy, ...) published from an engine
	// probe every TelemetryProbeInterval events. Sampling is pure
	// observation: the event stream, and therefore every result, is
	// identical with or without it (see internal/telemetry).
	Telemetry *telemetry.RunGauges
}

// World is one assembled simulation run.
type World struct {
	Engine  *sim.Engine
	Medium  *radio.Medium
	CA      *security.SimCA
	Traffic *traffic.Network

	cfg     Config
	routers map[geonet.Address]*geonet.Router
	// segments lists every traffic network in the world, Traffic first.
	// Additional entries come from addSegment (scale worlds).
	segments []*traffic.Network
	// syncTicker, when non-nil, is the world-level position sync that
	// replaces per-network syncing once several segments share the medium.
	syncTicker *sim.Ticker
	// detached accumulates the protocol counters of routers stopped when
	// their vehicle left the road, keyed by segment index, so both
	// ProtocolStats and the per-segment StatsSummary breakdown cover the
	// whole run.
	detached map[int]geonet.Stats
	// telemetry is the engine-probe sampler, nil when telemetry is off.
	telemetry *sampler
}

// New assembles a world. Vehicles present after prepopulation already
// have running router stacks.
func New(cfg Config) *World {
	if cfg.Tech == 0 {
		cfg.Tech = radio.DSRC
	}
	if cfg.RangeClass == 0 {
		cfg.RangeClass = radio.NLoSMedian
	}
	engine := sim.NewEngine(cfg.Seed)
	w := &World{
		Engine:   engine,
		Medium:   radio.NewMedium(engine, radio.Config{EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed, Tracer: cfg.Tracer}),
		CA:       security.NewSimCA(cfg.Seed),
		cfg:      cfg,
		routers:  make(map[geonet.Address]*geonet.Router),
		detached: make(map[int]geonet.Stats),
	}
	w.Traffic = traffic.NewNetwork(engine, traffic.NetworkConfig{
		Road:          traffic.NewRoad(cfg.Road),
		SpawnGap:      cfg.SpawnGap,
		Prepopulate:   cfg.Prepopulate,
		SpawnDisabled: cfg.SpawnDisabled,
		OnEnter:       func(v *traffic.Vehicle) { w.attachVehicle(v) },
		OnExit:        func(v *traffic.Vehicle) { w.detachVehicle(v) },
		// Vehicles only move inside the traffic integrator; re-syncing the
		// medium's spatial index right after keeps receiver lookups exact.
		OnStep: w.trafficStep,
	})
	w.segments = append(w.segments, w.Traffic)
	if cfg.Telemetry != nil {
		w.telemetry = &sampler{w: w, gauges: cfg.Telemetry}
		w.telemetry.attach()
	}
	return w
}

// trafficStep runs after each traffic network's integration step. With a
// single network it re-syncs the medium's spatial index immediately (the
// historical behavior, byte-identical event stream). Once several segments
// share the medium, syncing after every segment's step would rescan all
// antennas len(segments) times per tick, so the per-network hook becomes a
// no-op and the world-level syncTicker — always scheduled after every
// segment ticker — performs one sync per tick instead.
func (w *World) trafficStep() {
	if w.syncTicker == nil {
		w.Medium.SyncPositions()
	}
}

// addSegment attaches an additional prepopulated road segment to the
// world as its own traffic network sharing the engine, medium and PKI,
// with spawning disabled and vehicle IDs starting at firstID (which keeps
// GeoNetworking addresses unique across segments). Its vehicles get full
// router stacks through the same hooks as the primary network. The first
// call switches the world to one batched position sync per tick (see
// trafficStep).
func (w *World) addSegment(road traffic.RoadConfig, spawnGap float64, firstID int) {
	n := traffic.NewNetwork(w.Engine, traffic.NetworkConfig{
		Road:          traffic.NewRoad(road),
		SpawnGap:      spawnGap,
		Prepopulate:   true,
		SpawnDisabled: true,
		FirstID:       firstID,
		OnEnter:       func(v *traffic.Vehicle) { w.attachVehicle(v) },
		OnExit:        func(v *traffic.Vehicle) { w.detachVehicle(v) },
		OnStep:        w.trafficStep,
	})
	w.segments = append(w.segments, n)
	// (Re)create the world-level sync ticker so it always holds the
	// highest sequence number at each tick time: engine events at the same
	// timestamp fire in creation order, so this guarantees the sync runs
	// after every segment's integration step.
	if w.syncTicker != nil {
		w.syncTicker.Stop()
	}
	w.syncTicker = w.Engine.Every(traffic.Tick, traffic.Tick, "world.sync", w.Medium.SyncPositions)
}

// Segments returns every traffic network in the world, the primary one
// first. The slice is owned by the world; callers must not mutate it.
func (w *World) Segments() []*traffic.Network { return w.segments }

// VehicleRange reports the configured vehicle communication range.
func (w *World) VehicleRange() float64 {
	return radio.Range(w.cfg.Tech, w.cfg.RangeClass)
}

// Tech reports the configured access technology.
func (w *World) Tech() radio.Technology { return w.cfg.Tech }

// AddrOf maps a traffic vehicle to its GeoNetworking address.
func AddrOf(v *traffic.Vehicle) geonet.Address {
	return VehicleAddrBase + geonet.Address(v.ID)
}

func (w *World) attachVehicle(v *traffic.Vehicle) {
	addr := AddrOf(v)
	r := geonet.NewRouter(geonet.Config{
		Addr:             addr,
		Engine:           w.Engine,
		Medium:           w.Medium,
		Signer:           w.CA.Enroll(security.StationID(addr), 0),
		Verifier:         w.CA,
		Position:         v.Position,
		Velocity:         v.Velocity,
		Range:            w.VehicleRange(),
		LocTTTL:          w.cfg.LocTTTL,
		NeighborLifetime: w.cfg.NeighborLifetime,
		MaxHopLimit:      w.cfg.MaxHopLimit,
		PacketLifetime:   w.cfg.PacketLifetime,
		Forwarder:        w.cfg.Forwarder,
		ForwardFilter:    w.cfg.ForwardFilter,
		DuplicateRule:    w.cfg.DuplicateRule,
		Tracer:           w.cfg.Tracer,
		OnDeliver: func(p *geonet.Packet) {
			if w.cfg.OnDeliver != nil {
				w.cfg.OnDeliver(addr, p)
			}
		},
	})
	r.Start()
	w.routers[addr] = r
}

func (w *World) detachVehicle(v *traffic.Vehicle) {
	addr := AddrOf(v)
	if r, ok := w.routers[addr]; ok {
		r.Stop()
		seg := SegmentIndexOf(addr)
		s := w.detached[seg]
		s.Add(r.Stats())
		w.detached[seg] = s
		delete(w.routers, addr)
	}
}

// AddStatic deploys a stationary node (destination or RSU) with a running
// router and returns it. rangeM of 0 uses the vehicle range.
func (w *World) AddStatic(addr geonet.Address, pos geo.Point, rangeM float64) *geonet.Router {
	if _, dup := w.routers[addr]; dup {
		panic(fmt.Sprintf("vanet: duplicate static address %d", addr))
	}
	if rangeM == 0 {
		rangeM = w.VehicleRange()
	}
	r := geonet.NewRouter(geonet.Config{
		Addr:             addr,
		Engine:           w.Engine,
		Medium:           w.Medium,
		Signer:           w.CA.Enroll(security.StationID(addr), 0),
		Verifier:         w.CA,
		Position:         func() geo.Point { return pos },
		Range:            rangeM,
		LocTTTL:          w.cfg.LocTTTL,
		NeighborLifetime: w.cfg.NeighborLifetime,
		MaxHopLimit:      w.cfg.MaxHopLimit,
		PacketLifetime:   w.cfg.PacketLifetime,
		Forwarder:        w.cfg.Forwarder,
		ForwardFilter:    w.cfg.ForwardFilter,
		DuplicateRule:    w.cfg.DuplicateRule,
		Tracer:           w.cfg.Tracer,
		OnDeliver: func(p *geonet.Packet) {
			if w.cfg.OnDeliver != nil {
				w.cfg.OnDeliver(addr, p)
			}
		},
	})
	r.Start()
	w.routers[addr] = r
	return r
}

// Router returns the live router for addr, or nil (e.g. the vehicle
// already left the road).
func (w *World) Router(addr geonet.Address) *geonet.Router { return w.routers[addr] }

// RouterOf returns the live router of a traffic vehicle, or nil.
func (w *World) RouterOf(v *traffic.Vehicle) *geonet.Router { return w.routers[AddrOf(v)] }

// VehicleCount reports the on-road vehicle population across all segments.
func (w *World) VehicleCount() int {
	total := 0
	for _, n := range w.segments {
		total += n.Count()
	}
	return total
}

// AppendVehicles appends the on-road vehicles of every segment, sorted by
// ID, to dst and returns the extended slice — the deterministic sampling
// population for workload generators, which pass the same buffer back
// for every packet. Each network keeps its vehicles in ID order and
// segment ID striding gives later segments higher IDs, so concatenating
// the segments in order sorts them; a segment whose IDs ran into the
// next one's would panic.
func (w *World) AppendVehicles(dst []*traffic.Vehicle) []*traffic.Vehicle {
	dst = slices.Grow(dst, w.VehicleCount())
	start := len(dst)
	for _, n := range w.segments {
		seg := n.Vehicles()
		if len(dst) > start && len(seg) > 0 && seg[0].ID <= dst[len(dst)-1].ID {
			panic(fmt.Sprintf("vanet: segment vehicle ID %d follows ID %d", seg[0].ID, dst[len(dst)-1].ID))
		}
		dst = append(dst, seg...)
	}
	return dst
}

// Run advances the world to the given simulated time.
func (w *World) Run(until time.Duration) { w.Engine.Run(until) }

// ProtocolStats folds the GeoNetworking counters of every router that
// ever ran in this world — live ones plus those of vehicles that already
// left the road. Every counter is a uint64, so the fold is
// order-independent even though it walks Go maps.
func (w *World) ProtocolStats() geonet.Stats {
	var total geonet.Stats
	for _, s := range w.detached {
		total.Add(s)
	}
	for _, r := range w.routers {
		total.Add(r.Stats())
	}
	return total
}

// SegmentIndexOf maps a GeoNetworking address to its segment index:
// vehicle addresses decode through the SegmentIDStride striding,
// static infrastructure (destinations, RSUs) counts as segment 0.
func SegmentIndexOf(addr geonet.Address) int {
	id := int64(addr) - int64(VehicleAddrBase)
	if id < 0 {
		return 0
	}
	return int(id / SegmentIDStride)
}

// ProtocolStatsBySegment folds the protocol counters of every router that
// ever ran — live plus detached — keyed by segment index. It is the
// per-segment breakdown StatsSummary reports.
func (w *World) ProtocolStatsBySegment() map[int]geonet.Stats {
	out := make(map[int]geonet.Stats, len(w.segments))
	for seg, s := range w.detached {
		out[seg] = s
	}
	for addr, r := range w.routers {
		seg := SegmentIndexOf(addr)
		s := out[seg]
		s.Add(r.Stats())
		out[seg] = s
	}
	return out
}

// SegmentStats pairs a segment index with the folded protocol counters
// of every router that ran in that segment.
type SegmentStats struct {
	Segment  int          `json:"segment"`
	Protocol geonet.Stats `json:"protocol"`
}

// WorldStats is the canonical end-of-run summary artifact: population,
// whole-world protocol and radio counters, and the per-segment protocol
// breakdown in ascending segment order. Its JSON encoding is the digest
// the benchmark's world_scale workload checks against its golden file,
// so everything in it is deterministic and folds canonically. Raw engine
// event counts are deliberately absent, so a change that merges or
// splits bookkeeping events keeps the digest while every protocol
// outcome stays identical.
type WorldStats struct {
	Vehicles int            `json:"vehicles"`
	Protocol geonet.Stats   `json:"protocol"`
	Radio    radio.Stats    `json:"radio"`
	Segments []SegmentStats `json:"segments"`
}

// StatsSummary returns the world's canonical end-of-run summary: segments
// sort ascending and the whole-world protocol fold walks them in that
// canonical order.
func (w *World) StatsSummary() WorldStats {
	perSeg := w.ProtocolStatsBySegment()
	segs := make([]int, 0, len(perSeg))
	for g := range perSeg {
		segs = append(segs, g)
	}
	sort.Ints(segs)
	out := WorldStats{Vehicles: w.VehicleCount(), Radio: w.Medium.Stats(), Segments: make([]SegmentStats, 0, len(segs))}
	for _, g := range segs {
		out.Segments = append(out.Segments, SegmentStats{Segment: g, Protocol: perSeg[g]})
		out.Protocol.Add(perSeg[g])
	}
	return out
}
