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
	SimSeconds   *Gauge // current simulated time
	EventsPerSec *Gauge // events executed per wall-second, since last sample
	SimWallRatio *Gauge // simulated seconds per wall second, since last sample

	// Scheduler occupancy (timing wheel / heap internals).
	QueueLive         *Gauge // events that will actually fire
	QueueCanceled     *Gauge // canceled events awaiting lazy reclamation
	QueueOverflow     *Gauge // events spilled beyond the wheel horizon
	QueueMaxSlotDepth *Gauge // deepest wheel slot (granularity fit)

	// Radio medium.
	RadioInFlight *Gauge // transmissions scheduled but not yet delivered
	ChannelBusy   *Gauge // busy ratio: airtime seconds per sim second

	// GeoNetworking routers (summed over the run's routers).
	CBFArmed    *Gauge // armed contention-buffer timers
	GFBuffered  *Gauge // buffered greedy-forwarding retries
	LocTEntries *Gauge // location-table entries
	Routers     *Gauge // live routers in the world

	// Cumulative counters, shared across workers (samplers push deltas).
	EventsTotal     *Counter // sim events executed
	FramesTotal     *Counter // radio transmissions
	DeliveriesTotal *Counter // radio deliveries (incl. overhears)
	PoolHits        *Counter // radio free-list hits (delivery+cache+payload)
	PoolMisses      *Counter // radio free-list misses

	// Misbehavior-detection distributions, shared across workers
	// (observations are atomic, so fold order never matters).
	DetectLatency   *Histogram // first-true-verdict sim time per run, seconds
	DetectBeaconGap *Histogram // single-hop claim inter-arrival, seconds
	DetectPosError  *Histogram // implausible claim displacement excess, meters
}

// NewRunGauges registers the per-run series on r for one worker slot.
// Returns nil on a nil registry.
func NewRunGauges(r *Registry, worker int) *RunGauges {
	if r == nil {
		return nil
	}
	w := Label{Key: "worker", Value: strconv.Itoa(worker)}
	return &RunGauges{
		QueueDepth:   r.Gauge("georoute_engine_queue_depth", "Physically queued events (live plus canceled pending).", w),
		SimSeconds:   r.Gauge("georoute_engine_sim_seconds", "Current simulated time of the run.", w),
		EventsPerSec: r.Gauge("georoute_engine_events_per_second", "Events executed per wall-clock second.", w),
		SimWallRatio: r.Gauge("georoute_engine_sim_wall_ratio", "Simulated seconds advanced per wall-clock second.", w),

		QueueLive:         r.Gauge("georoute_engine_queue_live", "Queued events that will actually fire.", w),
		QueueCanceled:     r.Gauge("georoute_engine_queue_canceled", "Canceled events awaiting lazy reclamation.", w),
		QueueOverflow:     r.Gauge("georoute_engine_queue_overflow", "Events beyond the timing-wheel horizon.", w),
		QueueMaxSlotDepth: r.Gauge("georoute_engine_queue_max_slot_depth", "Deepest timing-wheel slot at sample time.", w),

		RadioInFlight: r.Gauge("georoute_radio_inflight", "Transmissions scheduled but not yet delivered.", w),
		ChannelBusy:   r.Gauge("georoute_radio_channel_busy_ratio", "Channel airtime per simulated second.", w),

		CBFArmed:    r.Gauge("georoute_geonet_cbf_armed", "Armed contention-based-forwarding timers across routers.", w),
		GFBuffered:  r.Gauge("georoute_geonet_gf_buffered", "Buffered greedy-forwarding unicast retries across routers.", w),
		LocTEntries: r.Gauge("georoute_geonet_loct_entries", "Location-table entries across routers.", w),
		Routers:     r.Gauge("georoute_geonet_routers", "Routers attached to the running world.", w),

		EventsTotal:     r.Counter("georoute_engine_events_total", "Simulation events executed, all workers."),
		FramesTotal:     r.Counter("georoute_radio_frames_total", "Radio transmissions sent, all workers."),
		DeliveriesTotal: r.Counter("georoute_radio_deliveries_total", "Radio frame deliveries (including overhears), all workers."),
		PoolHits:        r.Counter("georoute_radio_pool_hits_total", "Radio free-list reuse hits, all workers."),
		PoolMisses:      r.Counter("georoute_radio_pool_misses_total", "Radio free-list misses (fresh allocations), all workers."),

		DetectLatency:   r.Histogram("georoute_detect_latency_seconds", "Detection latency: sim time of the first true verdict per run.", LogBuckets(0.001, 4, 10)),
		DetectBeaconGap: r.Histogram("georoute_detect_beacon_gap_seconds", "Single-hop neighbor-claim inter-arrival per source.", LogBuckets(0.0001, 4, 12)),
		DetectPosError:  r.Histogram("georoute_detect_position_error_meters", "Claim displacement beyond the plausibility envelope.", LogBuckets(1, 4, 10)),
	}
}

// CampaignGauges bundles campaign-progress series.
type CampaignGauges struct {
	CellsTotal    *Gauge
	CellsDone     *Gauge
	CellsReplayed *Gauge // cells satisfied from the resume journal
	CellsPerSec   *Gauge
	ETASeconds    *Gauge
}

// NewCampaignGauges registers the campaign-progress series on r. Returns
// nil on a nil registry.
func NewCampaignGauges(r *Registry) *CampaignGauges {
	if r == nil {
		return nil
	}
	return &CampaignGauges{
		CellsTotal:    r.Gauge("georoute_campaign_cells_total", "Cells in the campaign plan."),
		CellsDone:     r.Gauge("georoute_campaign_cells_done", "Cells completed (executed or replayed)."),
		CellsReplayed: r.Gauge("georoute_campaign_cells_replayed", "Cells satisfied from the resume journal."),
		CellsPerSec:   r.Gauge("georoute_campaign_cells_per_second", "Executed-cell throughput."),
		ETASeconds:    r.Gauge("georoute_campaign_eta_seconds", "Estimated seconds until campaign completion."),
	}
}

// RegisterRuntime registers Go-runtime memory gauges refreshed lazily via
// an OnCollect hook, so runtime.ReadMemStats runs only when something
// actually scrapes. No-op on a nil registry.
func RegisterRuntime(r *Registry) {
	if r == nil {
		return
	}
	heap := r.Gauge("georoute_runtime_heap_bytes", "Bytes of allocated heap objects (MemStats.HeapAlloc).")
	sys := r.Gauge("georoute_runtime_sys_bytes", "Total bytes obtained from the OS (MemStats.Sys).")
	totalAlloc := r.Gauge("georoute_runtime_alloc_bytes_total", "Cumulative bytes allocated (MemStats.TotalAlloc).")
	gcs := r.Gauge("georoute_runtime_gc_cycles_total", "Completed GC cycles (MemStats.NumGC).")
	pauseNS := r.Gauge("georoute_runtime_gc_pause_ns_total", "Cumulative GC stop-the-world pause (MemStats.PauseTotalNs).")
	goroutines := r.Gauge("georoute_runtime_goroutines", "Live goroutines.")
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
