package vanet

import (
	"time"

	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/telemetry"
)

// TelemetryProbeInterval is how many executed events pass between
// telemetry samples. Sampling is pure observation at an event boundary
// (see sim.Engine.SetProbe), so the interval trades freshness against the
// cost of walking the router set; at typical event rates this lands at a
// few samples per simulated second.
const TelemetryProbeInterval = 8192

// sampler publishes world state into the run's gauge bundle. All state
// lives on the engine goroutine; only the atomic stores inside the
// telemetry handles cross goroutines.
type sampler struct {
	w      *World
	gauges *telemetry.RunGauges

	// Previous-sample state for rates and counter deltas.
	lastWall     time.Time
	lastSim      time.Duration
	lastExecuted uint64
	lastStats    struct {
		transmitted uint64
		delivered   uint64
		overheard   uint64
		poolHits    uint64
		poolMisses  uint64
	}
}

// attach installs the sampler as the engine probe.
func (s *sampler) attach() {
	s.lastWall = time.Now()
	s.w.Engine.SetProbe(TelemetryProbeInterval, s.sample)
}

// sample reads engine, medium and router state and publishes it. Reads
// only — it must never schedule events or draw randomness, or telemetry
// would perturb the deterministic event stream.
func (s *sampler) sample() {
	w, g := s.w, s.gauges
	now := time.Now()
	simNow := w.Engine.Now()
	executed := w.Engine.Executed()

	g.QueueDepth.Set(float64(w.Engine.Pending()))
	qs := w.Engine.QueueStats()
	g.QueueLive.Set(float64(qs.Live))
	g.QueueCanceled.Set(float64(qs.CanceledPending))
	g.QueueOverflow.Set(float64(qs.Overflow))
	g.QueueMaxSlotDepth.Set(float64(qs.MaxSlotDepth))
	g.SimSeconds.Set(simNow.Seconds())
	if wallDelta := now.Sub(s.lastWall).Seconds(); wallDelta > 0 {
		g.EventsPerSec.Set(float64(executed-s.lastExecuted) / wallDelta)
		g.SimWallRatio.Set((simNow - s.lastSim).Seconds() / wallDelta)
	}

	st := w.Medium.Stats()
	g.RadioInFlight.Set(float64(w.Medium.InFlight()))
	if simDelta := (simNow - s.lastSim).Seconds(); simDelta > 0 {
		// Channel-busy ratio: airtime scheduled per simulated second. Every
		// frame occupies the channel for the medium latency (access +
		// transmission), so the ratio is frames/s × latency.
		txDelta := float64(st.Transmitted - s.lastStats.transmitted)
		g.ChannelBusy.Set(txDelta * radio.Latency.Seconds() / simDelta)
	}

	cbf, gf, loct := 0, 0, 0
	for _, r := range w.routers {
		cbf += r.CBFArmed()
		gf += r.GFBufferLen()
		loct += r.LocT().Len()
	}
	g.CBFArmed.Set(float64(cbf))
	g.GFBuffered.Set(float64(gf))
	g.LocTEntries.Set(float64(loct))
	g.Routers.Set(float64(len(w.routers)))

	ps := w.Medium.PoolStats()
	g.EventsTotal.Add(executed - s.lastExecuted)
	g.FramesTotal.Add(st.Transmitted - s.lastStats.transmitted)
	g.DeliveriesTotal.Add((st.Delivered + st.Overheard) - (s.lastStats.delivered + s.lastStats.overheard))
	g.PoolHits.Add(ps.Hits() - s.lastStats.poolHits)
	g.PoolMisses.Add(ps.Misses() - s.lastStats.poolMisses)

	s.lastWall = now
	s.lastSim = simNow
	s.lastExecuted = executed
	s.lastStats.transmitted = st.Transmitted
	s.lastStats.delivered = st.Delivered
	s.lastStats.overheard = st.Overheard
	s.lastStats.poolHits = ps.Hits()
	s.lastStats.poolMisses = ps.Misses()
}

// SampleTelemetry forces an immediate telemetry sample (no-op when the
// world has no gauge bundle). The run harness calls it after the final
// Run so counters include the tail between the last probe firing and the
// end of the run.
func (w *World) SampleTelemetry() {
	if w.telemetry == nil {
		return
	}
	w.telemetry.sample()
}
