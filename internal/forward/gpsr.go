package forward

import (
	"math"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
)

// GPSR is greedy perimeter stateless routing: plain greedy forwarding
// until a local minimum (no neighbor strictly closer to the target),
// then perimeter-mode recovery walking the faces of the planarized
// neighbor graph by the right-hand rule until a node strictly closer to
// the target than the point where greedy failed is reached.
//
// The per-packet recovery state (mode, entry point Lp, current face's
// first edge e0 and entry distance Lf) travels in the packet's unsigned
// routing-extension trailer, so the algorithm stays stateless at the
// nodes, exactly as in the original design. Two deliberate adaptations
// to this simulator's GeoNetworking substrate:
//
//   - The planar graph is computed per hop from the live LocT using
//     ADVERTISED neighbor positions — the same (attackable) information
//     greedy trusts. A replayed beacon poisons GPSR's planarization the
//     same way it poisons GF's argmin.
//   - A perimeter walk that closes its face without progress (or finds
//     no usable neighbor) hands the packet to the router's
//     store-carry-forward buffer with the recovery state cleared, so
//     every retry restarts from greedy against the then-current
//     neighborhood. GPSR-over-SCF rather than an immediate drop.
type GPSR struct {
	greedy geonet.NextHopPolicy
	// ents and planar are per-router scratch buffers (policies are
	// per-router instances), keeping the per-hop neighbor walk
	// allocation-free.
	ents   []*geonet.LocTEntry
	planar []*geonet.LocTEntry
}

// NewGPSR constructs the policy (one per router).
func NewGPSR() *GPSR { return &GPSR{greedy: geonet.NewStandardGreedy()} }

// faceEps is the tolerance for "strictly closer" face-change crossings,
// absorbing the centimeter quantization of wire-encoded positions.
const faceEps = 0.05

// NextHop implements geonet.NextHopPolicy.
func (g *GPSR) NextHop(r *geonet.Router, out *geonet.Packet, target geo.Point, prevHop geonet.Address) (geonet.Address, bool) {
	self := r.Position()
	if out.Ext.Mode == geonet.ExtModePerimeter {
		if self.DistanceTo(target) < out.Ext.Lp.DistanceTo(target) {
			// Strictly closer than where greedy failed: recovered.
			out.Ext = geonet.PacketExt{}
		} else {
			next, ok := g.perimeterNext(r, out, target, prevHop, false)
			if !ok {
				// Face exhausted: clear the walk so a buffered retry
				// restarts from greedy.
				out.Ext = geonet.PacketExt{}
			}
			return next, ok
		}
	}
	if next, ok := g.greedy.NextHop(r, out, target, prevHop); ok {
		return next, true
	}
	// Local minimum: enter perimeter mode here.
	out.Ext = geonet.PacketExt{
		Mode:   geonet.ExtModePerimeter,
		Lp:     self,
		LfDist: self.DistanceTo(target),
	}
	next, ok := g.perimeterNext(r, out, target, prevHop, true)
	if !ok {
		out.Ext = geonet.PacketExt{}
	}
	return next, ok
}

// perimeterNext picks the next perimeter-mode hop by the right-hand
// rule: the first planar edge counterclockwise from the reference
// direction — toward the target when entering recovery, toward the
// previous hop (the reversed ingress edge) when continuing a walk.
func (g *GPSR) perimeterNext(r *geonet.Router, out *geonet.Packet, target geo.Point, prevHop geonet.Address, entering bool) (geonet.Address, bool) {
	now := r.Now()
	self := r.Position()
	g.ents = g.ents[:0]
	for _, e := range r.LocT().AppendNeighbors(g.ents, now) {
		if e.NeighborAt(now) && e.PV.Pos != self {
			g.ents = append(g.ents, e)
		}
	}
	// Gabriel planarization of this node's edges: keep (self, v) only
	// when no other neighbor lies inside the circle with that diameter.
	// Witnesses are all live neighbors; the mitigation filter then gates
	// which surviving edges may carry traffic. The packet's originator is
	// never a candidate (it stays a witness): this substrate drops own
	// echoes unconditionally, so an edge back to the source is always a
	// dead end — the same exclusion greedy applies.
	g.planar = g.planar[:0]
	for _, v := range g.ents {
		if v.PV.Addr == out.SourcePV.Addr {
			continue
		}
		if gabrielKeep(self, v.PV.Pos, v.PV.Addr, g.ents) && r.AcceptNextHop(self, v.PV.Pos, v) {
			g.planar = append(g.planar, v)
		}
	}
	if len(g.planar) == 0 {
		return 0, false
	}

	ref := math.Atan2(target.Y-self.Y, target.X-self.X)
	if !entering {
		if pe := lookupEnt(g.ents, prevHop); pe != nil {
			ref = math.Atan2(pe.PV.Pos.Y-self.Y, pe.PV.Pos.X-self.X)
		}
	}
	var best *geonet.LocTEntry
	bestTurn := math.Inf(1)
	for _, v := range g.planar {
		a := math.Atan2(v.PV.Pos.Y-self.Y, v.PV.Pos.X-self.X)
		turn := a - ref
		for turn <= 0 {
			// Strictly positive turn: the reference direction itself
			// (typically the edge back to prevHop) is the last resort.
			turn += 2 * math.Pi
		}
		if turn < bestTurn || (turn == bestTurn && v.PV.Addr < best.PV.Addr) {
			best, bestTurn = v, turn
		}
	}

	// Face change: crossing the Lp→target line strictly closer to the
	// target than the current face's entry point starts a new face.
	if x, ok := segIntersect(self, best.PV.Pos, out.Ext.Lp, target); ok {
		if d := x.DistanceTo(target); d < out.Ext.LfDist-faceEps {
			out.Ext.LfDist = d
			out.Ext.E0From, out.Ext.E0To = 0, 0
		}
	}
	if out.Ext.E0From == 0 && out.Ext.E0To == 0 {
		out.Ext.E0From, out.Ext.E0To = r.Addr(), best.PV.Addr
	} else if !entering && out.Ext.E0From == r.Addr() && out.Ext.E0To == best.PV.Addr {
		// The walk is about to repeat the face's first edge: the face
		// closed without reaching a recovery point, so the target is
		// unreachable through this neighborhood.
		return 0, false
	}
	return best.PV.Addr, true
}

// gabrielKeep reports whether the edge (self, v) survives the Gabriel
// test: no witness strictly inside the circle with diameter (self, v).
func gabrielKeep(self, v geo.Point, vAddr geonet.Address, ents []*geonet.LocTEntry) bool {
	// The compiler turns /2 into *0.5; rounding the midpoint keeps arm64
	// from fusing that product into the differences below.
	mx, my := float64((self.X+v.X)/2), float64((self.Y+v.Y)/2)
	r2 := sq(self.X-mx) + sq(self.Y-my)
	for _, w := range ents {
		if w.PV.Addr == vAddr {
			continue
		}
		wp := w.PV.Pos
		if sq(wp.X-mx)+sq(wp.Y-my) < r2-1e-9 {
			return false
		}
	}
	return true
}

// sq rounds the square, so arm64 never fuses it into a sum of squares
// and the Gabriel test decides the same on every architecture.
func sq(x float64) float64 { return float64(x * x) }

// lookupEnt scans the (small, sorted) neighbor scratch for addr.
func lookupEnt(ents []*geonet.LocTEntry, addr geonet.Address) *geonet.LocTEntry {
	for _, e := range ents {
		if e.PV.Addr == addr {
			return e
		}
	}
	return nil
}

// segIntersect returns the intersection point of segments a1a2 and b1b2
// when they properly intersect. Parallel or collinear overlaps report no
// intersection — a walk along the Lp→target line itself is not a
// face-change crossing.
func segIntersect(a1, a2, b1, b2 geo.Point) (geo.Point, bool) {
	d1x, d1y := a2.X-a1.X, a2.Y-a1.Y
	d2x, d2y := b2.X-b1.X, b2.Y-b1.Y
	// Rounding every product keeps arm64 from fusing it into a sum, so
	// the crossing is the same on every architecture.
	denom := float64(d1x*d2y) - float64(d1y*d2x)
	if math.Abs(denom) < 1e-12 {
		return geo.Point{}, false
	}
	t := (float64((b1.X-a1.X)*d2y) - float64((b1.Y-a1.Y)*d2x)) / denom
	u := (float64((b1.X-a1.X)*d1y) - float64((b1.Y-a1.Y)*d1x)) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return geo.Point{}, false
	}
	return geo.Pt(a1.X+float64(t*d1x), a1.Y+float64(t*d1y)), true
}
