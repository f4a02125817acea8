// Package showcase implements the paper's attack-impact scenarios:
// the hazard-notification traffic jams of Figure 12 and the blind-curve
// collision of Figure 13. Unlike the effectiveness experiments these
// couple the network layer back into the traffic layer — warned vehicles
// change their behavior.
package showcase

import (
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/traffic"
	"github.com/vanetsec/georoute/internal/vanet"
)

// EntranceAddr is the static node representing "the vehicles at the
// entrance" that must learn about the hazard (paper §IV-B). When it
// receives the notification the eastbound entrance gate closes.
const EntranceAddr geonet.Address = 3

// ReporterAddr is the stopped vehicle at the event spot that keeps
// re-issuing the hazard warning until the entrance confirms.
const ReporterAddr geonet.Address = 4

// HazardCase selects which of the two Figure 12 cases to run.
type HazardCase int

// The two cases of §IV-B.
const (
	// CaseGF: the hazard warning travels to the entrance as a GeoUnicast
	// routed by GF over two-direction traffic (Fig 12a).
	CaseGF HazardCase = iota + 1
	// CaseCBF: the warning floods the road as a GeoBroadcast via CBF
	// (Fig 12b).
	CaseCBF
)

// The Figure 12 geometry (§IV-B): a 4 km road whose eastbound lanes a
// hazard blocks 3.6 km in, 5 s into the run.
const (
	roadLength = 4000.0
	hazardX    = 3600.0
	hazardAt   = 5 * time.Second
)

// HazardConfig parameterizes a Figure 12 run.
type HazardConfig struct {
	Case     HazardCase
	Attacked bool
	Seed     uint64
	Duration time.Duration // default 200 s
}

// HazardResult is the measured outcome of one Figure 12 run.
type HazardResult struct {
	// VehicleCount[i] is the on-road vehicle count at second i.
	VehicleCount []int
	// GateClosedAt is when the entrance learned of the hazard; zero when
	// the notification never arrived (successful attack).
	GateClosedAt time.Duration
	// Events counts simulation events executed by the run — the
	// determinism-stable work measure used by per-cell resource
	// accounting.
	Events uint64
}

// RunHazard executes one Figure 12 scenario.
func RunHazard(cfg HazardConfig) HazardResult {
	if cfg.Duration == 0 {
		cfg.Duration = 200 * time.Second
	}
	// The empty-start GF case spawns at the IDM equilibrium headway (~50 m
	// at 30 m/s) so that entering vehicles do not brake and tear a
	// permanent hole behind the very first (free-flowing) vehicle; the
	// resulting inflow of ~0.6 veh/s/lane matches the paper's
	// Maryland-derived ~1.1 veh/s per direction. Its inter-area attacker
	// has a vehicle's range. The prepopulated CBF case keeps the paper's
	// 30 m spacing, and its intra-area attacker a 500 m range.
	spawnGap, attackRange := 30.0, 500.0
	if cfg.Case == CaseGF {
		spawnGap, attackRange = 50, radio.Range(radio.DSRC, radio.NLoSMedian)
	}
	var res HazardResult
	var w *vanet.World

	w = vanet.New(vanet.Config{
		Seed: cfg.Seed,
		Road: traffic.RoadConfig{
			Length:            roadLength,
			LanesPerDirection: 2,
			TwoWay:            cfg.Case == CaseGF,
		},
		SpawnGap: spawnGap,
		// Case 1 (Fig 12a) starts from an empty road that fills over the
		// run; case 2 (Fig 12b) needs on-road vehicles as CBF relays at
		// event time.
		Prepopulate: cfg.Case == CaseCBF,
		// The GF warning rides a store-carry-forward path across the
		// still-sparse road (~100 s at 30 m/s), so it needs more than the
		// 60 s default lifetime; ETSI permits up to 600 s.
		Router: geonet.Config{PacketLifetime: 180 * time.Second},
		OnDeliver: func(addr geonet.Address, p *geonet.Packet) {
			if addr == EntranceAddr && res.GateClosedAt == 0 {
				res.GateClosedAt = w.Engine.Now()
				w.Traffic.CloseGate(traffic.East)
			}
		},
	})
	w.AddStatic(EntranceAddr, geo.Pt(-20, 0), 0)
	reporter := w.AddStatic(ReporterAddr, geo.Pt(hazardX, 2.5), 0)

	if cfg.Attacked {
		mode := attack.InterArea
		if cfg.Case == CaseCBF {
			mode = attack.IntraArea
		}
		attack.NewAttacker(attack.Config{
			Engine:   w.Engine,
			Medium:   w.Medium,
			Position: geo.Pt(roadLength/2, -2.5),
			Range:    attackRange,
			Mode:     mode,
		})
	}

	// The hazard appears, blocking both eastbound lanes.
	w.Engine.ScheduleAt(hazardAt, "showcase.hazard", func() {
		w.Traffic.PlaceHazard(traffic.East, hazardX)
	})

	// The warning area covers the road segment and the entrance.
	area := geo.NewRect(geo.Pt(roadLength/2-35, 0), roadLength/2+40, 30, 90)

	// Every second after the hazard, the stopped vehicle at the event spot
	// re-issues the warning until the entrance confirms (gate closed).
	notify := func() {
		if res.GateClosedAt != 0 {
			return
		}
		switch cfg.Case {
		case CaseGF:
			reporter.SendGeoUnicast(EntranceAddr, geo.Pt(-20, 0), []byte("hazard"))
		case CaseCBF:
			reporter.SendGeoBroadcast(area, []byte("hazard"))
		}
	}
	for t := hazardAt + time.Second; t <= cfg.Duration; t += time.Second {
		w.Engine.ScheduleAt(t, "showcase.notify", notify)
	}

	// Sample the on-road population once per second.
	res.VehicleCount = make([]int, 0, int(cfg.Duration/time.Second)+1)
	for t := time.Duration(0); t <= cfg.Duration; t += time.Second {
		w.Engine.ScheduleAt(t, "showcase.sample", func() {
			res.VehicleCount = append(res.VehicleCount, w.Traffic.Count())
		})
	}

	w.Run(cfg.Duration)
	res.Events = w.Engine.Executed()
	return res
}
