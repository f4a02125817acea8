package showcase

import (
	"math"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/sim"
)

// The Figure 13 geometry: a sharp curve modeled as a circular arc of
// radius curveR around center (0, curveR). A hill fills the inside of the
// curve and blocks radio (and visual) line of sight across it, so two
// vehicles approaching the apex from opposite sides cannot hear each
// other until they are a few tens of meters apart. A roadside unit on the
// outer edge has line of sight to both sides and relays warnings.
const (
	curveR     = 200.0 // reference arc radius, m
	hillR      = 196.0 // hill radius; same-lane sight distance ~49 m
	laneV1     = 202.5 // V1's lane radius (outer)
	laneV2     = 197.5 // V2's lane radius (inner)
	rsuRadius  = 230.0 // R1 on the outer edge, clear of the hill
	rsuAddr    = geonet.Address(vRSU)
	sightGapM  = 45.0 // drivers see each other under this gap with LoS
	collideGap = 10.0 // head-on closer than this while sharing a lane
)

// node addresses for the curve scenario.
const (
	vV1  geonet.Address = 11
	vV2  geonet.Address = 12
	vRSU geonet.Address = 100
)

// curveActor is a scripted vehicle moving along the arc. Arc coordinate s
// is measured in V1's direction of travel; V2 moves toward decreasing s.
type curveActor struct {
	s     float64 // arc position, m
	v     float64 // speed, m/s (magnitude)
	a     float64 // acceleration on the speed, m/s^2 (negative = braking)
	vMin  float64 // speed floor for the current phase
	dir   float64 // +1 for V1, -1 for V2
	lane  float64 // current lane radius
	stopd bool
}

func (c *curveActor) pos() geo.Point {
	theta := c.s / curveR
	// The float64 conversions here and below round each product, which
	// keeps arm64 from fusing it into the sum: positions, and with them
	// Figs. 12 and 13, are then the same on every architecture.
	return geo.Pt(c.lane*math.Sin(theta), curveR-float64(c.lane*math.Cos(theta)))
}

func (c *curveActor) vel() geo.Vector {
	theta := c.s / curveR
	// Tangent in the direction of increasing s, scaled by signed speed.
	t := geo.Vec(math.Cos(theta), math.Sin(theta))
	return t.Scale(c.v * c.dir)
}

func (c *curveActor) step(dt float64) {
	if c.stopd {
		return
	}
	c.v += float64(c.a * dt)
	if c.v < c.vMin {
		c.v = c.vMin
	}
	if c.v < 0 {
		c.v = 0
	}
	c.s += float64(c.dir * c.v * dt)
}

// curveDuration is the length of a Figure 13 run: both vehicles have
// passed the apex (or collided) well before it ends.
const curveDuration = 25 * time.Second

// CurveConfig parameterizes a Figure 13 run.
type CurveConfig struct {
	Attacked bool
	Seed     uint64
}

// CurveResult is the outcome of one Figure 13 run.
type CurveResult struct {
	// Times (seconds) and the two speed profiles, sampled at 10 Hz.
	Times   []float64
	V1Speed []float64
	V2Speed []float64

	WarningSentAt time.Duration
	V2WarnedAt    time.Duration // zero when the warning never arrived
	RSURelayed    bool

	Collision   bool
	CollisionAt time.Duration
	MinGap      float64 // closest approach while V1 was in V2's lane

	// Events counts simulation events executed by the run (per-cell
	// resource accounting; deterministic for a given config).
	Events uint64
}

// RunCurve executes the blind-curve scenario of Figure 13.
func RunCurve(cfg CurveConfig) CurveResult {
	engine := sim.NewEngine()
	hill := radio.CircleObstruction{Center: geo.Pt(0, curveR), Radius: hillR}
	medium := radio.NewMedium(engine, radio.Config{Obstructions: []radio.Obstruction{hill}})
	ca := security.NewSimCA(cfg.Seed)

	res := CurveResult{MinGap: math.Inf(1)}

	// V1 approaches from the west at 27 m/s; V2 from the east at 14 m/s.
	v1 := &curveActor{s: -200, v: 27, a: -2, vMin: 12, dir: 1, lane: laneV1}
	v2 := &curveActor{s: 120, v: 14, a: -1, vMin: 8, dir: -1, lane: laneV2}

	vehRange := radio.Range(radio.DSRC, radio.NLoSMedian)
	newRouter := func(addr geonet.Address, pos func() geo.Point, vel func() geo.Vector, deliver func(*geonet.Packet)) *geonet.Router {
		r := geonet.NewRouter(geonet.Config{
			Addr:      addr,
			Engine:    engine,
			Medium:    medium,
			Signer:    ca.Enroll(security.StationID(addr), 0),
			Verifier:  ca,
			Position:  pos,
			Velocity:  vel,
			Range:     vehRange,
			OnDeliver: deliver,
		})
		r.Start()
		return r
	}

	warned := false
	r1Pos := geo.Pt(rsuRadius*math.Sin(0), curveR-float64(rsuRadius*math.Cos(0)))
	v1Router := newRouter(vV1, v1.pos, v1.vel, nil)
	newRouter(vV2, v2.pos, v2.vel, func(p *geonet.Packet) {
		if warned {
			return
		}
		warned = true
		res.V2WarnedAt = engine.Now()
		// The warned driver yields: brake to walking pace until V1 passes.
		v2.a = -3
		v2.vMin = 3
	})
	rsu := newRouter(rsuAddr, func() geo.Point { return r1Pos }, nil, nil)

	if cfg.Attacked {
		// Spot-2 variant: the attacker sits beside R1 and replays the
		// captured warning at minimal power so that ONLY R1 hears the
		// duplicate and discards its buffered copy.
		attack.NewAttacker(attack.Config{
			Engine:      engine,
			Medium:      medium,
			Position:    geo.Pt(math.Sin(0.005)*(rsuRadius+1), curveR-float64(math.Cos(0.005)*(rsuRadius+1))),
			Range:       vehRange,
			ReplayRange: 6,
			Mode:        attack.IntraAreaVariant,
		})
	}

	inV2Lane := func() bool { return v1.lane == laneV2 }
	emergencyAt := time.Duration(0)

	// Kinematics, lane changes, warning and collision detection at 20 Hz.
	const dt = 0.05
	warningSent := false
	engine.Every(50*time.Millisecond, 50*time.Millisecond, "curve.step", func() {
		v1.step(dt)
		v2.step(dt)
		// The actors move outside any traffic.Network, so re-sync the
		// medium's spatial index by hand before anything transmits.
		medium.SyncPositions()

		// V1 spots its hazard 100 m before the apex: brake harder, warn,
		// and swerve into the opposite lane between s=-60 and s=+10.
		if !warningSent && v1.s >= -100 {
			warningSent = true
			res.WarningSentAt = engine.Now()
			v1.a = -4
			v1.vMin = 12
			area := geo.NewCircle(geo.Pt(0, 0), 600)
			v1Router.SendGeoBroadcast(area, []byte("lane-change warning"))
		}
		if v1.lane == laneV1 && v1.s >= -60 && v1.s < 10 {
			v1.lane = laneV2
		}
		if inV2Lane() && v1.s >= 10 {
			v1.lane = laneV1 // back to its own lane past the hazard
			v1.a = 0
			v1.vMin = 0
			// The conflict is over: emergency braking (if any) ends and
			// both drivers hold their speeds.
			emergencyAt = 0
			v2.a = 0
		}

		gap := v1.pos().DistanceTo(v2.pos())
		los := !hill.Blocks(v1.pos(), v2.pos())
		if inV2Lane() {
			if gap < res.MinGap {
				res.MinGap = gap
			}
			// Drivers see each other late around the bend; after a 1 s
			// reaction both brake hard.
			if los && gap < sightGapM && emergencyAt == 0 {
				emergencyAt = engine.Now() + time.Second
			}
			if !res.Collision && gap < collideGap && (v1.v > 0.5 || v2.v > 0.5) {
				res.Collision = true
				res.CollisionAt = engine.Now()
				v1.v, v2.v = 0, 0
				v1.stopd, v2.stopd = true, true
			}
		}
		if emergencyAt != 0 && engine.Now() >= emergencyAt && inV2Lane() {
			v1.a, v1.vMin = -6, 0
			v2.a, v2.vMin = -6, 0
		}
		// Lane changes above also moved positions: sync again so frames
		// sent before the next tick see the updated geometry.
		medium.SyncPositions()
	})

	// Speed sampling at 10 Hz.
	engine.Every(0, 100*time.Millisecond, "curve.sample", func() {
		res.Times = append(res.Times, engine.Now().Seconds())
		res.V1Speed = append(res.V1Speed, v1.v)
		res.V2Speed = append(res.V2Speed, v2.v)
	})

	engine.Run(curveDuration)
	res.RSURelayed = rsu.Stats().CBFForwarded > 0
	res.Events = engine.Executed()
	return res
}
