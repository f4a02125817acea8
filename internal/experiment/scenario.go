// Package experiment reproduces the paper's evaluation (§IV-A and §V):
// scenario construction, workload generation, A/B (attack-free vs
// attacked) execution over many seeded runs, and the per-figure
// definitions that regenerate every plot in Figures 7-10 and 14.
package experiment

import (
	"fmt"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/radio"
)

// Workload selects the traffic pattern under test.
type Workload int

// Workloads.
const (
	// InterArea: every second a randomly chosen vehicle sends a GeoUnicast
	// toward one of the two static destinations 20 m beyond the road ends,
	// restricted to "vulnerable" (vehicle, direction) pairs per §IV-A.
	InterArea Workload = iota + 1
	// IntraArea: every second a randomly chosen vehicle GeoBroadcasts to a
	// destination area covering the whole road segment.
	IntraArea
)

// String implements fmt.Stringer.
func (w Workload) String() string {
	switch w {
	case InterArea:
		return "inter-area"
	case IntraArea:
		return "intra-area"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// Topology selects the world geometry of a scenario.
type Topology int

// Topologies.
const (
	// TopoRoad is the paper's moving-traffic road (the default).
	TopoRoad Topology = iota
	// TopoLocalMin is a static detour topology designed so that greedy
	// forwarding strands packets at a local minimum (a node none of
	// whose neighbors is closer to the destination) while a perimeter
	// recovery strategy can walk around the gap. No vehicles spawn; the
	// static source unicasts toward the east destination every packet
	// interval.
	TopoLocalMin
)

// The paper's road and radio (§IV-A), the same in every scenario: a
// RoadLength m segment with LanesPerDirection lanes each way, filled with
// traffic at t=0, its vehicles ranging at the VehicleRangeClass
// percentile of the scenario's technology, and the attacker on the
// shoulder at the road's midpoint.
const (
	RoadLength        = 4000.0
	LanesPerDirection = 2
	VehicleRangeClass = radio.NLoSMedian
)

// Scenario is one fully parameterized experiment arm. The zero value is
// not usable; start from Default.
type Scenario struct {
	// Tech sets the V2V communication range with VehicleRangeClass.
	Tech radio.Technology

	// Road geometry and traffic.
	TwoWay  bool
	Spacing float64 // inter-vehicle space (spawn gap), m
	// Topology selects the world geometry (default TopoRoad).
	Topology Topology

	// Forwarder selects the forwarding strategy for every router by
	// registry name ("" = the standard GF+CBF pair). See geosim -list
	// for the registered strategies.
	Forwarder string

	// Protocol parameters.
	LocTTTL     time.Duration
	MaxHopLimit uint8
	// NeighborLifetime overrides how long IS_NEIGHBOUR status lives after
	// the last direct beacon (0 = one beacon round; >= LocTTTL = the
	// literal standard where it lives as long as the entry).
	NeighborLifetime time.Duration
	// RadioEdgeFactor selects the reception model (0 = hard unit disk;
	// >1 enables the probabilistic soft edge ablation).
	RadioEdgeFactor float64

	// Workload.
	Workload       Workload
	PacketInterval time.Duration
	Duration       time.Duration // generation window
	Drain          time.Duration // extra settling time after generation
	BinWidth       time.Duration

	// Attack. AttackRange stays meaningful even when Mode is None: the
	// vulnerable-packet predicate uses it so both A/B arms sample the
	// same packet population.
	AttackMode    attack.Type
	AttackRange   float64
	AttackerDelay time.Duration // capture-to-replay latency

	// Mitigations (§V). Zero values disable them.
	PlausibilityThreshold float64
	RHLMaxDrop            int

	Seed uint64
}

// Default returns the paper's default simulation settings (§IV-A):
// single-direction two-lane 4,000 m road, 30 m spacing, DSRC NLoS-median
// ranges, 20 s LocT TTL, one packet per second, 200 s runs, 5 s bins.
func Default() Scenario {
	return Scenario{
		Tech:           radio.DSRC,
		TwoWay:         false,
		Spacing:        30,
		LocTTTL:        20 * time.Second,
		Workload:       InterArea,
		PacketInterval: time.Second,
		Duration:       200 * time.Second,
		Drain:          30 * time.Second,
		BinWidth:       5 * time.Second,
		AttackMode:     attack.None,
		AttackRange:    radio.Range(radio.DSRC, radio.NLoSWorst),
		AttackerDelay:  attack.DefaultProcessingDelay,
		Seed:           1,
	}
}

// VehicleRange reports the V2V communication range of the scenario.
func (s Scenario) VehicleRange() float64 {
	return radio.Range(s.Tech, VehicleRangeClass)
}

// AttackerPosition reports the sniffer location: the road midpoint, on
// the shoulder.
func (s Scenario) AttackerPosition() (x, y float64) {
	return RoadLength / 2, -2.5
}

// VulnerableBounds reports which inter-area packets are vulnerable to the
// attack (§IV-A): some forwarder position on the packet's path can be fed
// a beacon from a vehicle beyond its real coverage but inside the
// attacker's. A packet from srcX to the eastern destination is vulnerable
// when srcX <= east, and one to the western destination when srcX >= west.
func (s Scenario) VulnerableBounds() (east, west float64) {
	ax, _ := s.AttackerPosition()
	margin := s.AttackRange - s.VehicleRange()
	return ax + margin, ax - margin
}

// withAttack returns a copy with the attack enabled (mode m), and
// withoutAttack a copy with it disabled; both keep the same geometry so
// the vulnerable-packet populations match.
func (s Scenario) withAttack(m attack.Type) Scenario {
	s.AttackMode = m
	return s
}

func (s Scenario) withoutAttack() Scenario {
	s.AttackMode = attack.None
	return s
}
