package traffic

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/sim"
)

// Direction of travel along the road's X axis.
type Direction int

// Travel directions. Eastbound increases X; westbound decreases X.
const (
	East Direction = iota + 1
	West
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case East:
		return "east"
	case West:
		return "west"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Vehicle is one simulated car. Position S is measured along the travel
// direction from the vehicle's entrance (so S grows for both directions);
// use Position for plane coordinates. The pad keeps a vehicle in the
// allocator's 64-byte size class, one cache line each; in the 48-byte
// class half the vehicles would straddle two lines.
type Vehicle struct {
	ID        int
	Lane      *Lane
	S         float64 // front-bumper position along travel direction, m
	Speed     float64 // m/s, >= 0
	Accel     float64 // last computed acceleration, m/s^2
	EnteredAt time.Duration
	_         [16]byte
}

// Position maps the vehicle's lane coordinates to the plane.
func (v *Vehicle) Position() geo.Point {
	return v.Lane.PointAt(v.S)
}

// Velocity reports the plane velocity vector.
func (v *Vehicle) Velocity() geo.Vector {
	if v.Lane.Dir == East {
		return geo.Vec(v.Speed, 0)
	}
	return geo.Vec(-v.Speed, 0)
}

// X reports the vehicle's plane X coordinate.
func (v *Vehicle) X() float64 { return v.Position().X }

// Lane is one traffic lane.
type Lane struct {
	Index int // unique across the road
	Dir   Direction
	Y     float64 // lateral plane coordinate of the lane center
	road  *Road
	// vehicles ordered by S descending: element 0 is the lane leader
	// (closest to the exit).
	vehicles []*Vehicle
	// hazardS, when >= 0, is a blocking obstacle at that S coordinate.
	hazardS float64
}

// PointAt maps a travel-direction coordinate s to the plane.
func (l *Lane) PointAt(s float64) geo.Point {
	if l.Dir == East {
		return geo.Pt(l.road.OriginX+s, l.Y)
	}
	return geo.Pt(l.road.OriginX+l.road.Length-s, l.Y)
}

// SOf maps a plane X coordinate to this lane's travel coordinate.
func (l *Lane) SOf(x float64) float64 {
	if l.Dir == East {
		return x - l.road.OriginX
	}
	return l.road.OriginX + l.road.Length - x
}

// Vehicles returns the lane's vehicles ordered leader-first. The slice is
// owned by the lane; callers must not mutate it.
func (l *Lane) Vehicles() []*Vehicle { return l.vehicles }

// LaneWidth is the lateral spacing of lane centers, m.
const LaneWidth = 5.0

// Road is a straight multi-lane segment.
type Road struct {
	Length  float64
	OriginX float64
	Lanes   []*Lane
}

// RoadConfig parameterizes NewRoad.
type RoadConfig struct {
	Length            float64 // default 4000 m
	LanesPerDirection int     // default 2
	TwoWay            bool    // add westbound lanes
	// OriginX shifts the whole segment along the plane X axis, so several
	// segments can share one radio medium without overlapping (multi-
	// segment scale worlds). Travel coordinates stay segment-local.
	OriginX float64
}

// NewRoad builds the road geometry. Eastbound lanes sit at positive Y
// (y = w/2, 3w/2, ... for w = LaneWidth), westbound lanes at negative Y.
func NewRoad(cfg RoadConfig) *Road {
	if cfg.Length == 0 {
		cfg.Length = 4000
	}
	if cfg.LanesPerDirection == 0 {
		cfg.LanesPerDirection = 2
	}
	r := &Road{Length: cfg.Length, OriginX: cfg.OriginX}
	idx := 0
	for i := 0; i < cfg.LanesPerDirection; i++ {
		y := LaneWidth * (float64(i) + 0.5)
		r.Lanes = append(r.Lanes, &Lane{Index: idx, Dir: East, Y: y, road: r, hazardS: -1})
		idx++
	}
	if cfg.TwoWay {
		for i := 0; i < cfg.LanesPerDirection; i++ {
			y := -LaneWidth * (float64(i) + 0.5)
			r.Lanes = append(r.Lanes, &Lane{Index: idx, Dir: West, Y: y, road: r, hazardS: -1})
			idx++
		}
	}
	return r
}

// LanesOf returns the lanes serving a direction.
func (r *Road) LanesOf(d Direction) []*Lane {
	var out []*Lane
	for _, l := range r.Lanes {
		if l.Dir == d {
			out = append(out, l)
		}
	}
	return out
}

// Network steps vehicles along the road, spawns entries, and reports
// population counts. It is driven by a sim.Engine ticker.
type Network struct {
	engine *sim.Engine
	road   *Road

	spawnGap float64

	nextID int
	// vehicles lists the on-road vehicles in ID order: IDs are handed out
	// in increasing order, so a spawn appends and an exit deletes in place.
	vehicles   []*Vehicle
	gateClosed map[Direction]bool
	// exitScratch is reused by integrate's compaction pass so steady-state
	// ticks stay allocation-free.
	exitScratch []*Vehicle

	// OnEnter/OnExit are invoked when vehicles join or leave the road
	// (e.g. to attach/detach network stacks). Optional.
	OnEnter func(*Vehicle)
	OnExit  func(*Vehicle)
	// OnStep is invoked after each integration step, once every vehicle
	// position has been updated (e.g. to re-sync the radio medium's
	// spatial index). Optional.
	OnStep func()
}

// entrySpeed is the speed of spawned and prepopulated vehicles, the
// IDM desired speed of Table I (m/s).
const entrySpeed = 30.0

// Tick is the mobility integration step: a 10 Hz update, fine against
// IDM's second-scale reaction (time headway 1.5 s).
const Tick = 100 * time.Millisecond

// NetworkConfig parameterizes NewNetwork.
type NetworkConfig struct {
	Road     *Road
	SpawnGap float64 // inter-vehicle space; default 30 m
	// Prepopulate fills each lane with vehicles SpawnGap apart at t=0 so
	// the steady-state density holds from the first simulated second.
	Prepopulate bool
	// SpawnDisabled turns off the entry spawner entirely (bespoke
	// scenarios place vehicles by hand).
	SpawnDisabled bool
	// FirstID, when non-zero, is the ID assigned to the first vehicle.
	// Multi-segment worlds stride each segment's ID space so vehicle IDs —
	// and the addresses derived from them — stay globally unique.
	FirstID int
	// OnEnter/OnExit are invoked when vehicles join or leave the road.
	// They must be supplied here (not assigned later) when Prepopulate is
	// set, so the hooks observe the initial vehicles too.
	OnEnter func(*Vehicle)
	OnExit  func(*Vehicle)
	// OnStep is invoked after each integration step (see Network.OnStep).
	OnStep func()
}

// NewNetwork builds the traffic network and schedules its update ticker
// on the engine. Prepopulation happens immediately; the first integration
// step runs at t = Tick.
func NewNetwork(engine *sim.Engine, cfg NetworkConfig) *Network {
	if cfg.Road == nil {
		cfg.Road = NewRoad(RoadConfig{})
	}
	if cfg.SpawnGap == 0 {
		cfg.SpawnGap = 30
	}
	if cfg.FirstID == 0 {
		cfg.FirstID = 1
	}
	n := &Network{
		engine:     engine,
		road:       cfg.Road,
		spawnGap:   cfg.SpawnGap,
		nextID:     cfg.FirstID,
		gateClosed: make(map[Direction]bool),
		OnEnter:    cfg.OnEnter,
		OnExit:     cfg.OnExit,
		OnStep:     cfg.OnStep,
	}
	if cfg.Prepopulate {
		n.prepopulate()
	}
	step := func() { n.Step(Tick.Seconds()) }
	if cfg.SpawnDisabled {
		step = func() { n.integrate(Tick.Seconds()) }
	}
	engine.Every(Tick, Tick, "traffic.step", step)
	return n
}

// Road returns the underlying road.
func (n *Network) Road() *Road { return n.road }

// Count reports the number of vehicles currently on the road.
func (n *Network) Count() int { return len(n.vehicles) }

// Vehicles returns all on-road vehicles in ascending ID order. The slice
// is owned by the network and changes as vehicles enter and exit;
// callers must not mutate it.
func (n *Network) Vehicles() []*Vehicle { return n.vehicles }

// remove deletes v from the ID-ordered vehicle list, reporting whether
// it was on the road.
func (n *Network) remove(v *Vehicle) bool {
	i, ok := slices.BinarySearchFunc(n.vehicles, v.ID, func(o *Vehicle, id int) int { return cmp.Compare(o.ID, id) })
	if !ok || n.vehicles[i] != v {
		return false
	}
	n.vehicles = slices.Delete(n.vehicles, i, i+1)
	return true
}

// CloseGate stops new vehicles from entering in the given direction —
// drivers warned of the hazard choose not to enter (paper §IV-B).
func (n *Network) CloseGate(d Direction) { n.gateClosed[d] = true }

// PlaceHazard blocks every lane of direction d at plane coordinate x from
// now on. Vehicles approach and stop behind it.
func (n *Network) PlaceHazard(d Direction, x float64) {
	for _, l := range n.road.LanesOf(d) {
		l.hazardS = l.SOf(x)
	}
}

// AddVehicle inserts a vehicle mid-road (used by prepopulation, tests and
// bespoke scenarios). s is the travel coordinate of the front bumper.
func (n *Network) AddVehicle(lane *Lane, s, speed float64) *Vehicle {
	v := &Vehicle{
		ID:        n.nextID,
		Lane:      lane,
		S:         s,
		Speed:     speed,
		EnteredAt: n.engine.Now(),
	}
	n.nextID++
	n.vehicles = append(n.vehicles, v)
	// Insert keeping the leader-first ordering. New rear entries (spawns,
	// back-to-front prepopulation, bulk adds) hit the O(1) tail append;
	// only genuine mid-lane insertions pay the scan.
	if k := len(lane.vehicles); k == 0 || lane.vehicles[k-1].S > s {
		lane.vehicles = append(lane.vehicles, v)
	} else {
		at := len(lane.vehicles)
		for i, o := range lane.vehicles {
			if o.S < s {
				at = i
				break
			}
		}
		lane.vehicles = append(lane.vehicles, nil)
		copy(lane.vehicles[at+1:], lane.vehicles[at:])
		lane.vehicles[at] = v
	}
	if n.OnEnter != nil {
		n.OnEnter(v)
	}
	return v
}

// BulkAdd inserts a batch of vehicles into one lane, front-of-batch first
// (ss in descending travel-coordinate order — the natural leader-first
// layout). The lane slice is grown once up front and each insert takes the
// tail fast path, so populating a lane with k vehicles is O(k) instead of
// the O(k^2) a naive per-vehicle insertion scan would cost. Enter hooks
// fire per vehicle, in batch order.
func (n *Network) BulkAdd(lane *Lane, ss []float64, speed float64) []*Vehicle {
	if need := len(lane.vehicles) + len(ss); cap(lane.vehicles) < need {
		grown := make([]*Vehicle, len(lane.vehicles), need)
		copy(grown, lane.vehicles)
		lane.vehicles = grown
	}
	out := make([]*Vehicle, 0, len(ss))
	for _, s := range ss {
		out = append(out, n.AddVehicle(lane, s, speed))
	}
	return out
}

// laneStagger offsets lane i's vehicle pattern so parallel lanes are not
// position-synchronized. Perfectly co-located cross-lane twins would make
// every CBF re-broadcast happen twice from the same spot, and the second
// copy would cancel all next-hop contention timers — a degenerate
// placement no real traffic exhibits.
func (n *Network) laneStagger(lane *Lane) float64 {
	if len(n.road.Lanes) == 0 {
		return 0
	}
	return n.spawnGap * float64(lane.Index) / float64(len(n.road.Lanes))
}

func (n *Network) prepopulate() {
	for _, lane := range n.road.Lanes {
		var ss []float64
		for s := n.road.Length - n.laneStagger(lane); s >= 0; s -= n.spawnGap {
			ss = append(ss, s)
		}
		n.BulkAdd(lane, ss, entrySpeed)
	}
}

// Step advances the world by dt seconds: spawn, then integrate motion.
func (n *Network) Step(dt float64) {
	n.spawn()
	n.integrate(dt)
}

func (n *Network) spawn() {
	for _, lane := range n.road.Lanes {
		if n.gateClosed[lane.Dir] {
			continue
		}
		if len(lane.vehicles) > 0 {
			rear := lane.vehicles[len(lane.vehicles)-1]
			if rear.S <= n.spawnGap {
				continue
			}
		} else if n.engine.Now() < time.Duration(n.laneStagger(lane)/entrySpeed*float64(time.Second)) {
			// Keep empty lanes staggered at startup too.
			continue
		}
		n.AddVehicle(lane, 0, entrySpeed)
	}
}

func (n *Network) integrate(dt float64) {
	idm := DefaultIDM()
	// Two passes: compute accelerations from the unmodified state, then
	// integrate, so update order within a tick cannot leak.
	for _, lane := range n.road.Lanes {
		for i, v := range lane.vehicles {
			gap := math.Inf(1)
			leadSpeed := 0.0
			if i > 0 {
				lead := lane.vehicles[i-1]
				gap = lead.S - v.S - idm.VehicleLength
				leadSpeed = lead.Speed
			}
			if lane.hazardS >= 0 && v.S < lane.hazardS {
				hGap := lane.hazardS - v.S
				if hGap < gap {
					gap = hGap
					leadSpeed = 0
				}
			}
			v.Accel = idm.Accel(v.Speed, gap, leadSpeed)
		}
	}
	for _, lane := range n.road.Lanes {
		exited := n.exitScratch[:0]
		for _, v := range lane.vehicles {
			newSpeed := v.Speed + float64(v.Accel*dt)
			if newSpeed < 0 {
				// Ballistic update: stop exactly when speed hits zero.
				stopDt := -v.Speed / v.Accel
				v.S += float64(v.Speed*stopDt) + float64(0.5*v.Accel*stopDt*stopDt)
				v.Speed = 0
			} else {
				v.S += float64(v.Speed*dt) + float64(0.5*v.Accel*dt*dt)
				v.Speed = newSpeed
			}
			if v.S > n.road.Length {
				exited = append(exited, v)
			}
		}
		if len(exited) > 0 {
			// Single compaction pass per lane: exits cluster at the lane
			// head, so removing them one by one would shift the whole lane
			// once per exit.
			keep := lane.vehicles[:0]
			for _, o := range lane.vehicles {
				drop := false
				for _, x := range exited {
					if x == o {
						drop = true
						break
					}
				}
				if !drop {
					keep = append(keep, o)
				}
			}
			for i := len(keep); i < len(lane.vehicles); i++ {
				lane.vehicles[i] = nil
			}
			lane.vehicles = keep
			for _, v := range exited {
				n.remove(v)
			}
			if n.OnExit != nil {
				for _, v := range exited {
					n.OnExit(v)
				}
			}
		}
		n.exitScratch = exited[:0]
	}
	if n.OnStep != nil {
		n.OnStep()
	}
}
