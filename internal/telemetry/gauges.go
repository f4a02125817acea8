package telemetry

import (
	"runtime"
	"strconv"
)

// RunGauges bundles the per-simulation-run sample sinks. A campaign pool
// creates one set per worker slot (labelled worker="N") and hands it to
// each run executing in that slot; successive runs reuse the same series.
// All fields are nil-safe, so a nil *RunGauges (telemetry off) can still
// be dereferenced field-by-field at sample sites.
type RunGauges struct {
	// Engine health.
	QueueDepth   *Gauge // physically queued events (live + canceled pending)
	SimSeconds   *Gauge // current simulated time of the run, seconds
	EventsPerSec *Gauge // events executed per wall-second, since last sample
	SimWallRatio *Gauge // simulated seconds per wall second, since last sample

	// Scheduler occupancy (timing wheel / heap internals).
	QueueLive         *Gauge // events that will actually fire
	QueueCanceled     *Gauge // canceled events awaiting lazy reclamation
	QueueOverflow     *Gauge // events spilled beyond the wheel horizon
	QueueMaxSlotDepth *Gauge // deepest wheel slot at sample time (granularity fit)

	// Radio medium.
	RadioInFlight *Gauge // transmissions scheduled but not yet delivered
	ChannelBusy   *Gauge // busy ratio: airtime seconds per sim second

	// GeoNetworking routers (summed over the run's routers).
	CBFArmed    *Gauge // armed contention-based-forwarding timers
	GFBuffered  *Gauge // buffered greedy-forwarding unicast retries
	LocTEntries *Gauge // location-table entries
	Routers     *Gauge // routers attached to the running world

	// Cumulative counters, shared across workers (samplers push deltas).
	EventsTotal     *Counter // sim events executed
	FramesTotal     *Counter // radio transmissions sent
	DeliveriesTotal *Counter // radio frame deliveries (incl. overhears)
	PoolHits        *Counter // radio free-list hits (delivery+cache+payload)
	PoolMisses      *Counter // radio free-list misses (fresh allocations)
}

// NewRunGauges registers the per-run series on r for one worker slot.
// Returns nil on a nil registry.
func NewRunGauges(r *Registry, worker int) *RunGauges {
	if r == nil {
		return nil
	}
	w := Label{Key: "worker", Value: strconv.Itoa(worker)}
	return &RunGauges{
		QueueDepth:   r.Gauge("georoute_engine_queue_depth", w),
		SimSeconds:   r.Gauge("georoute_engine_sim_seconds", w),
		EventsPerSec: r.Gauge("georoute_engine_events_per_second", w),
		SimWallRatio: r.Gauge("georoute_engine_sim_wall_ratio", w),

		QueueLive:         r.Gauge("georoute_engine_queue_live", w),
		QueueCanceled:     r.Gauge("georoute_engine_queue_canceled", w),
		QueueOverflow:     r.Gauge("georoute_engine_queue_overflow", w),
		QueueMaxSlotDepth: r.Gauge("georoute_engine_queue_max_slot_depth", w),

		RadioInFlight: r.Gauge("georoute_radio_inflight", w),
		ChannelBusy:   r.Gauge("georoute_radio_channel_busy_ratio", w),

		CBFArmed:    r.Gauge("georoute_geonet_cbf_armed", w),
		GFBuffered:  r.Gauge("georoute_geonet_gf_buffered", w),
		LocTEntries: r.Gauge("georoute_geonet_loct_entries", w),
		Routers:     r.Gauge("georoute_geonet_routers", w),

		EventsTotal:     r.Counter("georoute_engine_events_total"),
		FramesTotal:     r.Counter("georoute_radio_frames_total"),
		DeliveriesTotal: r.Counter("georoute_radio_deliveries_total"),
		PoolHits:        r.Counter("georoute_radio_pool_hits_total"),
		PoolMisses:      r.Counter("georoute_radio_pool_misses_total"),
	}
}

// CampaignGauges bundles campaign-progress series.
type CampaignGauges struct {
	CellsTotal    *Gauge // cells in the campaign plan
	CellsDone     *Gauge // cells completed, executed or replayed
	CellsReplayed *Gauge // cells satisfied from the resume journal
	CellsPerSec   *Gauge // executed-cell throughput
	ETASeconds    *Gauge // estimated seconds until the campaign completes
}

// NewCampaignGauges registers the campaign-progress series on r. Returns
// nil on a nil registry.
func NewCampaignGauges(r *Registry) *CampaignGauges {
	if r == nil {
		return nil
	}
	return &CampaignGauges{
		CellsTotal:    r.Gauge("georoute_campaign_cells_total"),
		CellsDone:     r.Gauge("georoute_campaign_cells_done"),
		CellsReplayed: r.Gauge("georoute_campaign_cells_replayed"),
		CellsPerSec:   r.Gauge("georoute_campaign_cells_per_second"),
		ETASeconds:    r.Gauge("georoute_campaign_eta_seconds"),
	}
}

// RegisterRuntime registers Go-runtime memory gauges refreshed lazily via
// an OnCollect hook, so runtime.ReadMemStats runs only when something
// actually scrapes. No-op on a nil registry.
func RegisterRuntime(r *Registry) {
	if r == nil {
		return
	}
	heap := r.Gauge("georoute_runtime_heap_bytes")              // MemStats.HeapAlloc
	sys := r.Gauge("georoute_runtime_sys_bytes")                // MemStats.Sys
	totalAlloc := r.Gauge("georoute_runtime_alloc_bytes_total") // MemStats.TotalAlloc
	gcs := r.Gauge("georoute_runtime_gc_cycles_total")          // MemStats.NumGC
	pauseNS := r.Gauge("georoute_runtime_gc_pause_ns_total")    // MemStats.PauseTotalNs
	goroutines := r.Gauge("georoute_runtime_goroutines")
	r.OnCollect(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap.Set(float64(ms.HeapAlloc))
		sys.Set(float64(ms.Sys))
		totalAlloc.Set(float64(ms.TotalAlloc))
		gcs.Set(float64(ms.NumGC))
		pauseNS.Set(float64(ms.PauseTotalNs))
		goroutines.Set(float64(runtime.NumGoroutine()))
	})
}
