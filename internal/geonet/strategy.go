package geonet

import (
	"fmt"
	"sort"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
)

// This file is the forwarder arena's seam: the two decision points the
// router delegates — next-hop selection and CBF contention policy — plus
// the registry that names complete strategies. The standard GF+CBF pair
// implemented here is the default; alternative forwarders (GPSR perimeter
// recovery, S-FoT+ timer variants, ...) live in internal/forward and
// register themselves at init time.

// ForwardFilter decides which location-table entries may be chosen as GF
// next hops. The default (nil) accepts every entry — the standard's
// behavior, which the inter-area interception attack exploits. The
// plausibility-check mitigation plugs in here. The filter is orthogonal
// to the forwarding strategy: every NextHopPolicy must consult it (via
// Router.AcceptNextHop) for each candidate it considers.
type ForwardFilter interface {
	// Accept reports whether the entry may be used as a next hop by a
	// forwarder currently located at self. pos is the entry's advertised
	// position (the one GF selects by).
	Accept(self, pos geo.Point, e *LocTEntry) bool
}

// DuplicateRule decides whether a second copy of a buffered CBF packet
// cancels the contention timer. The default (nil) treats every copy as a
// duplicate — the standard's behavior, which the intra-area blockage
// attack exploits. The RHL-drop-check mitigation plugs in here. Like the
// ForwardFilter it is orthogonal to the strategy: a duplicate must pass
// both the mitigation rule and the strategy's ContentionPolicy before it
// cancels a contention.
type DuplicateRule interface {
	// CancelsContention reports whether a copy received with dupRHL,
	// while a copy first received with firstRHL is buffered, should stop
	// the contention timer and discard the buffered packet.
	CancelsContention(firstRHL, dupRHL uint8) bool
}

// NextHopPolicy selects the unicast next hop for a packet traveling
// toward a geographic target (GUC destination or GBC area center). It is
// consulted on first reception and again on every store-carry-forward
// retry. The policy may rewrite out.Ext (the unsigned routing-extension
// trailer) to carry per-packet routing state — GPSR's perimeter mode
// lives there. Returning ok=false sends the packet to the
// store-carry-forward buffer.
type NextHopPolicy interface {
	// NextHop picks the next hop for out toward target. prevHop is the
	// link-layer sender the packet was last accepted from (0 at the
	// source); policies implement split horizon with it. The policy must
	// run AcceptNextHop on every candidate so mitigation filters apply
	// uniformly across strategies.
	NextHop(r *Router, out *Packet, target geo.Point, prevHop Address) (Address, bool)
}

// ContentionPolicy parameterizes the CBF state machine: how long a
// contender waits before re-broadcasting, and whether the n-th duplicate
// copy cancels the wait. The state machine itself (arming, firing,
// duplicate bookkeeping) stays in the router so every strategy shares one
// verified implementation.
type ContentionPolicy interface {
	// Timeout computes the contention timer for a copy of p received from
	// the link-layer sender from.
	Timeout(r *Router, p *Packet, from Address) time.Duration
	// CancelOnDuplicate reports whether the nth duplicate copy (1 for the
	// first copy after the buffered one), received with dupRHL while a
	// copy first received with firstRHL is buffered, cancels the
	// contention. The standard always cancels.
	CancelOnDuplicate(r *Router, firstRHL, dupRHL uint8, nth int) bool
}

// Strategy names a complete forwarder: a next-hop policy and a
// contention policy, constructed per router so implementations may keep
// per-router scratch state without synchronization.
type Strategy struct {
	// Name is the registry key (geosim -forwarder <name>).
	Name string
	// NewNextHop and NewContention build per-router policy instances.
	NewNextHop    func() NextHopPolicy
	NewContention func() ContentionPolicy
}

// DefaultForwarder is the registry name of the extracted standard
// GF+CBF pair; Config.Forwarder == "" resolves to it.
const DefaultForwarder = "gf-cbf"

var strategies = map[string]Strategy{}

// RegisterStrategy adds a strategy to the arena. It is meant to be
// called from init functions (the registry is not synchronized) and
// panics on duplicate or incomplete registrations so wiring mistakes
// surface at process start.
func RegisterStrategy(s Strategy) {
	if s.Name == "" || s.NewNextHop == nil || s.NewContention == nil {
		panic("geonet: RegisterStrategy needs a name and both policy constructors")
	}
	if _, dup := strategies[s.Name]; dup {
		panic(fmt.Sprintf("geonet: forwarder strategy %q registered twice", s.Name))
	}
	strategies[s.Name] = s
}

// StrategyNames lists the registered forwarder strategies in sorted
// order — the canonical iteration order for tournaments and tests.
func StrategyNames() []string {
	names := make([]string, 0, len(strategies))
	for n := range strategies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LookupStrategy resolves a forwarder name ("" means the default).
func LookupStrategy(name string) (Strategy, bool) {
	if name == "" {
		name = DefaultForwarder
	}
	s, ok := strategies[name]
	return s, ok
}

func init() {
	RegisterStrategy(Strategy{
		Name:          DefaultForwarder,
		NewNextHop:    NewStandardGreedy,
		NewContention: NewStandardCBF,
	})
}

// AcceptNextHop applies the mitigation ForwardFilter to a next-hop
// candidate, counting rejections. Every NextHopPolicy must route its
// candidates through here so filters compose with any strategy.
func (r *Router) AcceptNextHop(self, pos geo.Point, e *LocTEntry) bool {
	if r.cfg.ForwardFilter != nil && !r.cfg.ForwardFilter.Accept(self, pos, e) {
		r.stats.GFFiltered++
		return false
	}
	return true
}

// Now exposes simulated time to strategy implementations.
func (r *Router) Now() time.Duration { return r.cfg.Engine.Now() }

// Range reports the configured communication range (DIST_MAX).
func (r *Router) Range() float64 { return r.cfg.Range }

// standardGreedy is the extracted GF next-hop selection: the neighbor
// whose advertised position is strictly closest to the target, excluding
// the packet source and the previous hop.
type standardGreedy struct{}

// NewStandardGreedy returns the standard GF next-hop policy. Exported so
// alternative strategies can reuse it as their greedy phase.
func NewStandardGreedy() NextHopPolicy { return standardGreedy{} }

func (standardGreedy) NextHop(r *Router, out *Packet, target geo.Point, prevHop Address) (Address, bool) {
	now := r.cfg.Engine.Now()
	self := r.cfg.Position()
	myDist := self.DistanceTo(target)
	best := r.loct.Closest(target, now, func(e *LocTEntry, estPos geo.Point) bool {
		if !e.NeighborAt(now) {
			// GF only considers entries with live IS_NEIGHBOUR status.
			return false
		}
		if e.PV.Addr == out.SourcePV.Addr {
			// Never route a packet back to its source.
			return false
		}
		if e.PV.Addr == prevHop {
			// Split horizon: not straight back to who handed it to us.
			return false
		}
		if estPos.DistanceTo(target) >= myDist {
			return false
		}
		return r.AcceptNextHop(self, estPos, e)
	})
	if best == nil {
		return 0, false
	}
	return best.PV.Addr, true
}

// standardCBF is the extracted contention policy: the standard's
// distance-proportional timeout and unconditional duplicate cancel.
type standardCBF struct{}

// NewStandardCBF returns the standard CBF contention policy. Exported so
// alternative strategies can reuse either half of it.
func NewStandardCBF() ContentionPolicy { return standardCBF{} }

// Timeout computes TO from the distance to the previous sender. The
// sender position comes from the location table entry for the link-layer
// sender, as in the standard; an unknown sender yields TO_MAX.
func (standardCBF) Timeout(r *Router, p *Packet, from Address) time.Duration {
	now := r.cfg.Engine.Now()
	entry := r.loct.Lookup(from, now)
	if entry == nil {
		return TOMax
	}
	dist := r.cfg.Position().DistanceTo(entry.PV.Pos)
	if dist > r.cfg.Range {
		return TOMin
	}
	span := float64(TOMax - TOMin)
	to := float64(TOMax) - span*dist/r.cfg.Range
	return time.Duration(to)
}

func (standardCBF) CancelOnDuplicate(*Router, uint8, uint8, int) bool { return true }
