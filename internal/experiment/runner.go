package experiment

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/mitigation"
	"github.com/vanetsec/georoute/internal/telemetry"
	"github.com/vanetsec/georoute/internal/trace"
	"github.com/vanetsec/georoute/internal/traffic"
	"github.com/vanetsec/georoute/internal/vanet"
)

// tracked is the bookkeeping for one generated packet. A router hands a
// packet to the upper layer at most once, so counting deliveries counts
// distinct receivers.
type tracked struct {
	sentAt time.Duration
	// InterArea: the destination address that must receive the packet,
	// and whether it did.
	dest      geonet.Address
	delivered bool
	// IntraArea: the on-road population at send time and how many of it
	// received the packet.
	targets  map[geonet.Address]bool
	received int
}

// RunResult carries the measured series of a single arm plus run-level
// diagnostics.
type RunResult struct {
	Series *metrics.BinSeries
	// PacketsSent counts generated packets across all merged runs.
	PacketsSent int
	// AttackerStats aggregates the attacker counters (zero for af arms).
	AttackerStats attack.Stats
	// Protocol aggregates the GeoNetworking counters of every router in
	// the run (including despawned vehicles) — the per-reason drop
	// rollup surfaced in the JSON artifacts.
	Protocol geonet.Stats
	// Events counts simulation events executed by the run's engine, a
	// determinism-stable measure of work used by per-cell resource
	// accounting. Excluded from figure artifacts.
	Events uint64
	// LatencySumSeconds and LatencyCount fold the end-to-end latency of
	// every FIRST delivery (per packet per receiver) across merged runs;
	// their ratio is the arm's mean delivery latency. Both fold in seed
	// order so campaign aggregation reproduces them bit-identically.
	LatencySumSeconds float64
	LatencyCount      uint64
	// Detection is the run's misbehavior-detection summary, present only
	// when the run was observed with Observe.Detect. Like per-cell
	// resources it lives outside the byte-identity surface: campaign
	// aggregation folds it into detection.json, never summary.json.
	Detection *detect.Summary `json:"Detection,omitempty"`
}

// Observe bundles the optional observability sinks of a run: the packet-
// lifecycle tracer (internal/trace), the runtime-health gauge bundle
// (internal/telemetry), and the misbehavior-detection monitors
// (internal/detect). Everything may be nil/false; the zero Observe is an
// unobserved run.
type Observe struct {
	Tracer *trace.Tracer
	Gauges *telemetry.RunGauges
	// Detect arms per-node plausibility monitors for the run. Ground
	// truth is labeled from the scenario (the attacker's replay pseudonym
	// on attack arms; no suspect is ever true on attack-free arms), and
	// the run result gains a Detection summary. Pure observation: the
	// measured series are bit-identical with detection on or off.
	Detect bool
	// Verdicts, when non-nil alongside Detect, receives every individual
	// verdict (evidence rendered). Campaign runs leave it nil and keep
	// only the aggregate summary.
	Verdicts func(detect.Verdict)
}

// RunOnce executes a single seeded run of the scenario arm and returns
// its bin series.
func RunOnce(s Scenario, seed uint64) RunResult {
	return RunOnceObserved(s, seed, Observe{})
}

// RunOnceObserved is RunOnce with both observability sinks threaded
// through the world (see Observe). Neither sink influences the event
// stream, so the measured series are identical across all variants.
func RunOnceObserved(s Scenario, seed uint64, obs Observe) RunResult {
	tr := obs.Tracer
	var w *vanet.World
	// sent lists the generated packets in origination order, the order
	// the series folds them in; reg indexes them by key.
	var sent []*tracked
	reg := make(map[geonet.Key]*tracked)
	track := func(key geonet.Key, t *tracked) {
		t.sentAt = w.Engine.Now()
		sent = append(sent, t)
		reg[key] = t
	}

	var cfgFilter geonet.ForwardFilter
	if s.PlausibilityThreshold > 0 {
		cfgFilter = mitigation.Plausibility{Threshold: s.PlausibilityThreshold}
	}
	var cfgRule geonet.DuplicateRule
	if s.RHLMaxDrop > 0 {
		cfgRule = mitigation.RHLDropCheck{MaxDrop: s.RHLMaxDrop}
	}

	var det *detect.Detector
	if obs.Detect {
		dcfg := detect.Config{Sink: obs.Verdicts}
		if s.AttackMode != attack.None {
			// The attacker replays under its pseudonym from t=0; any
			// verdict naming it is a true detection.
			pseudonym := uint64(attack.DefaultPseudonym)
			dcfg.Truth = func(suspect uint64) bool { return suspect == pseudonym }
		}
		if g := obs.Gauges; g != nil {
			dcfg.LatencyHist = g.DetectLatency
			dcfg.BeaconGapHist = g.DetectBeaconGap
			dcfg.PosErrorHist = g.DetectPosError
		}
		det = detect.New(dcfg)
	}

	var latSum float64
	var latCount uint64
	w = vanet.New(vanet.Config{
		Seed:             seed,
		Tech:             s.Tech,
		RangeClass:       s.VehicleRangeClass,
		Road:             traffic.RoadConfig{Length: s.RoadLength, LanesPerDirection: s.LanesPerDirection, TwoWay: s.TwoWay},
		SpawnGap:         s.Spacing,
		Prepopulate:      s.Prepopulate && s.Topology == TopoRoad,
		SpawnDisabled:    s.Topology == TopoLocalMin,
		LocTTTL:          s.LocTTTL,
		NeighborLifetime: s.NeighborLifetime,
		MaxHopLimit:      s.MaxHopLimit,
		EdgeFactor:       s.RadioEdgeFactor,
		Forwarder:        s.Forwarder,
		ForwardFilter:    cfgFilter,
		DuplicateRule:    cfgRule,
		Tracer:           tr,
		Telemetry:        obs.Gauges,
		Detector:         det,
		OnDeliver: func(addr geonet.Address, p *geonet.Packet) {
			t, ok := reg[p.Key()]
			if !ok {
				return
			}
			switch s.Workload {
			case InterArea:
				if addr != t.dest {
					return
				}
				t.delivered = true
			case IntraArea:
				if !t.targets[addr] {
					return
				}
				t.received++
			}
			latSum += (w.Engine.Now() - t.sentAt).Seconds()
			latCount++
		},
	})

	switch {
	case s.Topology == TopoLocalMin:
		src, relays, dest := LocalMinLayout(s.VehicleRange())
		w.AddStatic(LocalMinSourceAddr, src, 0)
		for i, p := range relays {
			w.AddStatic(LocalMinSourceAddr+1+geonet.Address(i), p, 0)
		}
		w.AddStatic(vanet.EastDestAddr, dest, 0)
	case s.Workload == InterArea:
		w.AddStatic(vanet.WestDestAddr, geo.Pt(-20, 0), 0)
		w.AddStatic(vanet.EastDestAddr, geo.Pt(s.RoadLength+20, 0), 0)
	}

	var atk *attack.Attacker
	if s.AttackMode != attack.None {
		ax, ay := s.AttackerPosition()
		atk = attack.NewAttacker(attack.Config{
			Engine:          w.Engine,
			Medium:          w.Medium,
			Position:        geo.Pt(ax, ay),
			Range:           s.AttackRange,
			ProcessingDelay: s.AttackerDelay,
			Mode:            s.AttackMode,
			Tracer:          tr,
		})
	}

	// The workload generator has its own RNG stream so the packet
	// population is identical across A/B arms.
	wrand := rand.New(rand.NewPCG(seed^0x9e3779b97f4a7c15, seed+0x632be59bd9b4e019))
	area := geo.NewRect(geo.Pt(s.RoadLength/2, 0), s.RoadLength/2, 30, 90)

	generate := func() {
		if s.Topology == TopoLocalMin {
			// The static source unicasts toward the east destination; the
			// interesting behaviour is how each forwarder copes with the
			// designed dead end, not who sends.
			r := w.Router(LocalMinSourceAddr)
			if r == nil {
				return
			}
			_, _, destPos := LocalMinLayout(s.VehicleRange())
			track(r.SendGeoUnicast(vanet.EastDestAddr, destPos, nil), &tracked{dest: vanet.EastDestAddr})
			return
		}
		switch s.Workload {
		case InterArea:
			type pair struct {
				v   *traffic.Vehicle
				dst geonet.Address
			}
			var pairs []pair
			for _, v := range w.Vehicles() {
				x := v.X()
				if s.VulnerableEast(x) {
					pairs = append(pairs, pair{v, vanet.EastDestAddr})
				}
				if s.VulnerableWest(x) {
					pairs = append(pairs, pair{v, vanet.WestDestAddr})
				}
			}
			if len(pairs) == 0 {
				return
			}
			p := pairs[wrand.IntN(len(pairs))]
			r := w.RouterOf(p.v)
			if r == nil {
				return
			}
			destPos := geo.Pt(-20, 0)
			if p.dst == vanet.EastDestAddr {
				destPos = geo.Pt(s.RoadLength+20, 0)
			}
			track(r.SendGeoUnicast(p.dst, destPos, nil), &tracked{dest: p.dst})
		case IntraArea:
			vs := w.Vehicles()
			if len(vs) == 0 {
				return
			}
			src := vs[wrand.IntN(len(vs))]
			r := w.RouterOf(src)
			if r == nil {
				return
			}
			targets := make(map[geonet.Address]bool, len(vs))
			for _, v := range vs {
				if v.ID == src.ID {
					continue
				}
				targets[vanet.AddrOf(v)] = true
			}
			track(r.SendGeoBroadcast(area, nil), &tracked{targets: targets})
		}
	}

	// Generate from t=1s through the end of the window, then drain.
	for t := s.PacketInterval; t <= s.Duration; t += s.PacketInterval {
		w.Engine.ScheduleAt(t, "experiment.generate", generate)
	}
	w.Run(s.Duration + s.Drain)
	// Flush the tail between the last probe firing and the end of the run
	// so telemetry counters account for every event.
	w.SampleTelemetry()

	series := metrics.NewBinSeries(s.Duration, s.BinWidth)
	for _, t := range sent {
		switch s.Workload {
		case InterArea:
			v := 0.0
			if t.delivered {
				v = 1
			}
			series.Add(t.sentAt, v)
		case IntraArea:
			if len(t.targets) == 0 {
				continue
			}
			series.Add(t.sentAt, float64(t.received)/float64(len(t.targets)))
		}
	}
	res := RunResult{
		Series:            series,
		PacketsSent:       len(sent),
		Protocol:          w.ProtocolStats(),
		Events:            w.Engine.Executed(),
		LatencySumSeconds: latSum,
		LatencyCount:      latCount,
	}
	if atk != nil {
		res.AttackerStats = atk.Stats()
	}
	res.Detection = det.Summary()
	return res
}

// ObserveHook provisions the observers of one figure cell that
// Figure.Run executes on pool worker `worker` (0-based and fixed for the
// worker's lifetime, so per-worker telemetry gauges can be labeled by
// it). It returns the cell's Observe and an optional finalizer run on the
// worker right after the cell completes (typically flushing a per-cell
// trace file). Concurrent cells need distinct tracers.
type ObserveHook func(c Cell, worker int) (Observe, func() error, error)

// Run executes every cell of the figure — `runs` seeded repetitions per
// arm, runs <= 0 meaning one — and folds each completion as it arrives.
// All arms' cells feed one pool of MaxParallel() workers, so the slowest
// arm's tail does not idle the cores that finished faster arms. A nil
// hook is an unobserved run; observers never change the result. Every
// cell runs even after an error, and the first hook, finalizer or fold
// error is returned.
func (f Figure) Run(runs int, hook ObserveHook) (FigureResult, error) {
	fo, err := f.runFold(runs, hook)
	if err != nil {
		return FigureResult{}, err
	}
	return fo.Result(), nil
}

// runFold runs the figure's cells on the shared pool and returns their
// fold. Workers finish in any order; the Fold restores seed order, so the
// result is deterministic regardless of scheduling.
func (f Figure) runFold(runs int, hook ObserveHook) (*Fold, error) {
	fo := NewFold(f, runs)
	cells := f.Cells(runs)
	type completion struct {
		cell Cell
		res  *RunResult
		err  error
	}
	queue := make(chan Cell)
	done := make(chan completion)
	var wg sync.WaitGroup
	for w := 0; w < min(MaxParallel(), len(cells)); w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for c := range queue {
				res, err := f.runHooked(c, worker, hook)
				done <- completion{cell: c, res: res, err: err}
			}
		}(w)
	}
	go func() {
		for _, c := range cells {
			queue <- c
		}
		close(queue)
		wg.Wait()
		close(done)
	}()
	var firstErr error
	for d := range done {
		if d.err == nil {
			d.err = fo.Add(d.cell, d.res)
		}
		if firstErr == nil {
			firstErr = d.err
		}
	}
	return fo, firstErr
}

// runHooked runs one cell under the observers the hook provisions for it.
func (f Figure) runHooked(c Cell, worker int, hook ObserveHook) (*RunResult, error) {
	var obs Observe
	var finish func() error
	if hook != nil {
		var err error
		if obs, finish, err = hook(c, worker); err != nil {
			return nil, err
		}
	}
	res, err := f.RunCell(c, obs)
	if finish != nil {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}
	return &res, err
}

// RunArm executes `runs` seeded repetitions of one arm as a one-arm
// figure and returns the merged run (runs <= 0 means one). Results are
// deterministic for a given (scenario, runs) pair regardless of
// scheduling.
func RunArm(s Scenario, runs int) RunResult {
	// Unobserved cells of the figure's own arms cannot fail.
	fo, _ := Figure{ID: "arm", Arms: []Arm{{Label: "arm", Scenario: s}}}.runFold(runs, nil)
	return fo.Arm("arm")
}

// RunAB executes the attack-free and attacked arms of a scenario as a
// two-arm figure and returns the paired result, including per-run spread
// statistics (overall reception per arm and the seed-paired drop rate).
func RunAB(s Scenario, runs int) metrics.ABResult {
	f := Figure{
		ID:    "ab",
		Arms:  []Arm{{Label: "af", Scenario: s.withoutAttack()}, {Label: "atk", Scenario: s}},
		Pairs: []Pair{{Label: "ab", Free: "af", Attacked: "atk"}},
	}
	fo, _ := f.runFold(runs, nil)
	res := fo.Result()
	return metrics.ABResult{
		Free:           fo.Arm("af").Series,
		Attacked:       fo.Arm("atk").Series,
		FreeSpread:     res.ArmSpread["af"],
		AttackedSpread: res.ArmSpread["atk"],
		DropSpread:     res.DropSpread["ab"],
	}
}

// MaxParallel reports the worker count used by the shared run pools: one
// fewer than the CPU count so an interactive shell (or the campaign's
// journal writer) stays responsive, and never less than one.
func MaxParallel() int {
	n := runtime.NumCPU() - 1
	if n < 1 {
		n = 1
	}
	return n
}
