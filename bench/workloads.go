package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/campaign"
	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/telemetry"
	"github.com/vanetsec/georoute/internal/trace"
	"github.com/vanetsec/georoute/internal/traffic"
	"github.com/vanetsec/georoute/internal/vanet"
)

// Workload kinds: seeded experiment runs, a journaled campaign, or one
// large world advanced in slices.
const (
	kindRuns     = "runs"
	kindCampaign = "campaign"
	kindWorld    = "world"
)

// workloadNames lists the workloads in the order they run and print.
var workloadNames = []string{"fig7a_campaign", "cbf_storm", "observed", "world_scale"}

// runSeeds is the number of run seeds per arm of the run workloads:
// benchmark seed n gives run seeds n*runSeeds+1 … (n+1)*runSeeds.
const runSeeds = 4

// worldGap is the vehicle spacing of the scale world, in metres.
const worldGap = 100.0

// Spec is everything a repetition's child process needs to build its
// inputs. specFor derives it from a workload name and the benchmark seed;
// tests build smaller ones directly.
type Spec struct {
	Workload string `json:"workload"`
	Kind     string `json:"kind"`

	// Figure and Arms name the runs of the runs kind, one per arm and
	// seed. The campaign kind sweeps every arm of Figure for CampaignRuns
	// seeds.
	Figure       string   `json:"figure,omitempty"`
	Arms         []string `json:"arms,omitempty"`
	Seeds        []uint64 `json:"seeds,omitempty"`
	CampaignRuns int      `json:"campaign_runs,omitempty"`
	// Duration and PacketInterval override the arm scenario when set.
	Duration       time.Duration `json:"duration,omitempty"`
	PacketInterval time.Duration `json:"packet_interval,omitempty"`
	// Observe threads a JSONL tracer with trace counters, the detection
	// monitors and telemetry gauges through every run.
	Observe bool `json:"observe,omitempty"`

	// The world kind: Segments road copies holding 2×PerLane vehicles
	// each, advanced Slices times by Slice of simulated time.
	Segments  int           `json:"segments,omitempty"`
	PerLane   int           `json:"per_lane,omitempty"`
	WorldSeed uint64        `json:"world_seed,omitempty"`
	Slices    int           `json:"slices,omitempty"`
	Slice     time.Duration `json:"slice,omitempty"`
}

// specFor returns the workload's inputs for a benchmark seed. The seed
// shifts every run seed and the world seed; the campaign workload has
// none to shift, because campaign specs take the figure's own seeds.
func specFor(name string, seed uint64) (Spec, error) {
	seeds := make([]uint64, runSeeds)
	for i := range seeds {
		seeds[i] = seed*runSeeds + uint64(i) + 1
	}
	switch name {
	case "fig7a_campaign":
		return Spec{Workload: name, Kind: kindCampaign, Figure: "fig7a", CampaignRuns: 1}, nil
	case "cbf_storm":
		return Spec{Workload: name, Kind: kindRuns, Figure: "fig9a", Arms: []string{"af_mN", "atk_mN"}, Seeds: seeds,
			Duration: 30 * time.Second, PacketInterval: 100 * time.Millisecond}, nil
	case "observed":
		return Spec{Workload: name, Kind: kindRuns, Figure: "fig7a", Arms: []string{"af_wN", "atk_wN"}, Seeds: seeds,
			Duration: 60 * time.Second, Observe: true}, nil
	case "world_scale":
		return Spec{Workload: name, Kind: kindWorld, Segments: 50, PerLane: 500, WorldSeed: seed + 1,
			Slices: 50, Slice: 100 * time.Millisecond}, nil
	}
	return Spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// unitCount is the number of timed units one repetition runs.
func (s Spec) unitCount() int {
	n := 0
	switch s.Kind {
	case kindRuns:
		n = len(s.Arms) * len(s.Seeds)
	case kindCampaign:
		if f, ok := experiment.Figures()[s.Figure]; ok {
			n = len(f.Cells(s.CampaignRuns))
		}
	case kindWorld:
		n = s.Slices
	}
	return max(n, 1)
}

// tailQuantile is the percentile reported as unit_ms_tail. It leaves
// about ten of a run's pooled units beyond it where the units are alike:
// p95 of several hundred world slices, p80 of 40–90 runs. A campaign's
// cells are not alike: one arm in six (atk_mL) costs three times the
// others, so p90 lands inside that arm instead of on the edge between
// the two groups.
func (s Spec) tailQuantile() float64 {
	switch s.Kind {
	case kindWorld:
		return 0.95
	case kindCampaign:
		return 0.90
	}
	return 0.80
}

// runKey names one experiment run; it matches the campaign's cell key.
func runKey(figure, arm string, seed uint64) string {
	return fmt.Sprintf("%s/%s/%d", figure, arm, seed)
}

// request is what the parent sends a child on standard input.
type request struct {
	Spec    Spec   `json:"spec"`
	WorkDir string `json:"work_dir"`
	// The profile paths are set on traced repetitions only.
	CPUProfile   string `json:"cpu_profile,omitempty"`
	AllocProfile string `json:"alloc_profile,omitempty"`
}

// unit is one timed piece of a repetition: a run, a campaign cell or a
// world slice. Digest covers the unit's output, Err a failed check.
type unit struct {
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

func (u unit) ms() float64 { return float64(u.End-u.Start) / 1e6 }

// check is an output digest covering the whole repetition.
type check struct {
	Key    string `json:"key"`
	Digest string `json:"digest"`
}

// span is one timed call recorded by the benchmark. Parent 0 is the
// enclosing span: the repetition for spans a child records.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// repResult is what a child reports for its repetition.
type repResult struct {
	Units  []unit  `json:"units"`
	Checks []check `json:"checks,omitempty"`
	// WorkNS is the host time of the units, set-up excluded.
	WorkNS int64 `json:"work_ns"`
	// AllocBytes and Mallocs cover the whole process up to the end of
	// the units.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	// PeakRSS is the process's resident-set high-water mark, in bytes.
	PeakRSS int64 `json:"peak_rss"`
	// Layer holds the per-layer counts and runtime waits.
	Layer map[string]float64 `json:"layer"`
	// Spans are the calls the child timed around its units; UnitParent
	// is the one the units ran under, 0 for the repetition itself.
	Spans      []span `json:"spans,omitempty"`
	UnitParent int    `json:"unit_parent,omitempty"`
}

// repetition is a child's state while it builds and runs its units.
type repetition struct {
	spec  Spec
	res   repResult
	tally tally
}

func (r *repetition) span(parent int, name string, start, end time.Time) int {
	id := len(r.res.Spans) + 1
	r.res.Spans = append(r.res.Spans, span{ID: id, Parent: parent, Workload: r.spec.Workload, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// setup builds the repetition's inputs and returns the timed work and
// the untimed check of its outputs.
func (r *repetition) setup(workDir string) (work, verify func() error, err error) {
	switch r.spec.Kind {
	case kindRuns:
		work, err = r.setupRuns()
		return work, func() error { return nil }, err
	case kindCampaign:
		return r.setupCampaign(workDir)
	case kindWorld:
		work, verify = r.setupWorld()
		return work, verify, nil
	}
	return nil, nil, fmt.Errorf("unknown workload kind %q", r.spec.Kind)
}

func (r *repetition) setupRuns() (func() error, error) {
	fig, ok := experiment.Figures()[r.spec.Figure]
	if !ok {
		return nil, fmt.Errorf("unknown figure %q", r.spec.Figure)
	}
	scenarios := make([]experiment.Scenario, len(r.spec.Arms))
	for i, arm := range r.spec.Arms {
		s, ok := fig.Arm(arm)
		if !ok {
			return nil, fmt.Errorf("figure %s has no arm %q", fig.ID, arm)
		}
		if r.spec.Duration > 0 {
			s.Duration = r.spec.Duration
		}
		if r.spec.PacketInterval > 0 {
			s.PacketInterval = r.spec.PacketInterval
		}
		scenarios[i] = s
	}
	if len(r.spec.Seeds) > 0 {
		r.buildWorld(scenarios[0], r.spec.Seeds[0])
	}
	var gauges *telemetry.RunGauges
	if r.spec.Observe {
		gauges = telemetry.NewRunGauges(telemetry.NewRegistry(), 0)
	}
	return func() error {
		for _, seed := range r.spec.Seeds {
			for i, s := range scenarios {
				start := time.Now()
				obs := experiment.Observe{Gauges: gauges, Detect: r.spec.Observe}
				var sinks *traceSinks
				if r.spec.Observe {
					sinks = newTraceSinks()
					obs.Tracer = sinks.tracer
				}
				res := experiment.RunOnceObserved(s, seed, obs)
				u := unit{Key: runKey(fig.ID, r.spec.Arms[i], seed), Start: start.UnixNano()}
				if sinks != nil {
					if err := sinks.flush(&r.tally); err != nil {
						return err
					}
					u.Err = detectionErr(s, res.Detection)
				}
				u.End = time.Now().UnixNano()
				r.addRun(&u, &res)
				r.res.Units = append(r.res.Units, u)
			}
		}
		return nil
	}, nil
}

// buildWorld is the set-up of the run and campaign workloads: a run of
// no simulated time, which builds, enrols and prepopulates the world an
// arm's runs start from and sends the first beacons.
func (r *repetition) buildWorld(s experiment.Scenario, seed uint64) {
	start := time.Now()
	s.Duration, s.Drain = 0, 0
	experiment.RunOnce(s, seed)
	r.span(0, "setup.RunOnce", start, time.Now())
}

// addRun digests one run's artifact surface into its unit and adds the
// run's counters to the tally.
func (r *repetition) addRun(u *unit, res *experiment.RunResult) {
	d, err := runDigest(res)
	if err != nil && u.Err == "" {
		u.Err = err.Error()
	}
	u.Digest = d
	r.tally.addRun(res)
}

// detectionErr checks an observed run's verdicts against the ground truth
// of its arm: attack arms must be detected, attack-free arms stay silent.
func detectionErr(s experiment.Scenario, d *detect.Summary) string {
	switch {
	case d == nil:
		return "run has no detection summary"
	case s.AttackMode != attack.None && !d.Detected:
		return "attack arm not detected"
	case s.AttackMode == attack.None && d.Verdicts != 0:
		return fmt.Sprintf("%d verdicts on an attack-free arm", d.Verdicts)
	}
	return ""
}

func (r *repetition) setupCampaign(workDir string) (work, verify func() error, err error) {
	fig, ok := experiment.Figures()[r.spec.Figure]
	if !ok || len(fig.Arms) == 0 {
		return nil, nil, fmt.Errorf("unknown figure %q", r.spec.Figure)
	}
	r.buildWorld(fig.Arms[0].Scenario, fig.Arms[0].Scenario.Seed)
	dir, err := os.MkdirTemp(workDir, "campaign-")
	if err != nil {
		return nil, nil, err
	}
	sp := campaign.Spec{Name: "bench", Runs: r.spec.CampaignRuns, Figures: []string{r.spec.Figure}}
	var info campaign.Info
	work = func() error {
		start := time.Now()
		last := start
		opts := campaign.Options{ResultsDir: dir, Workers: 1, Progress: func(_, _, _ int, key string) {
			now := time.Now()
			if key != "" {
				r.res.Units = append(r.res.Units, unit{Key: key, Start: last.UnixNano(), End: now.UnixNano()})
			}
			last = now
		}}
		var err error
		info, err = campaign.Run(context.Background(), sp, opts)
		end := time.Now()
		r.res.UnitParent = r.span(0, "campaign.Run", start, end)
		r.span(r.res.UnitParent, "campaign.finalize", last, end)
		if err != nil {
			os.RemoveAll(dir)
		}
		return err
	}
	verify = func() error {
		defer os.RemoveAll(dir)
		journal := filepath.Join(info.Dir, "journal.jsonl")
		j, cells, err := campaign.OpenJournal(journal, sp)
		if err != nil {
			return err
		}
		if err := j.Close(); err != nil {
			return err
		}
		for i := range r.res.Units {
			u := &r.res.Units[i]
			if res := cells[u.Key].Run; res != nil {
				r.addRun(u, res)
			} else {
				u.Err = "cell missing from the journal"
			}
		}
		h := sha256.New()
		for _, name := range []string{"summary.json", r.spec.Figure + ".json"} {
			b, err := os.ReadFile(filepath.Join(info.Dir, name))
			if err != nil {
				return err
			}
			h.Write(b)
		}
		r.res.Checks = append(r.res.Checks, check{Key: "artifacts", Digest: hex.EncodeToString(h.Sum(nil))})
		st, err := os.Stat(journal)
		if err != nil {
			return err
		}
		r.tally.journalBytes = st.Size()
		r.tally.cells = len(r.res.Units)
		return nil
	}
	return work, verify, nil
}

func (r *repetition) setupWorld() (work, verify func() error) {
	start := time.Now()
	w := vanet.NewScaleWorld(vanet.ScaleConfig{
		Seed:        r.spec.WorldSeed,
		Segments:    r.spec.Segments,
		SegmentRoad: traffic.RoadConfig{Length: worldGap * float64(r.spec.PerLane-1), LanesPerDirection: 2},
		SpawnGap:    worldGap,
	})
	r.span(0, "vanet.NewScaleWorld", start, time.Now())
	work = func() error {
		for i := 1; i <= r.spec.Slices; i++ {
			s := time.Now()
			w.Run(time.Duration(i) * r.spec.Slice)
			r.res.Units = append(r.res.Units, unit{Key: fmt.Sprintf("slice/%03d", i), Start: s.UnixNano(), End: time.Now().UnixNano()})
			r.tally.pending = append(r.tally.pending, float64(w.Engine.PendingLive()))
		}
		return nil
	}
	verify = func() error {
		st := w.StatsSummary()
		b, err := json.Marshal(st)
		if err != nil {
			return err
		}
		r.res.Checks = append(r.res.Checks, check{Key: fmt.Sprintf("stats/%d", r.spec.WorldSeed), Digest: digest(b)})
		r.tally.protocol = st.Protocol
		r.tally.radio = st.Radio
		r.tally.pool = w.Medium.PoolStats()
		r.tally.events = w.Engine.Executed()
		return nil
	}
	return work, verify
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runDigest hashes the artifact surface of one run: the series bins,
// packets sent, protocol and attacker counters and the latency sums.
// Engine event counts are left out, so a change that merges events keeps
// its digests, and so are the detection counters, which JSON omits.
//
// Bin rates are rounded to 1e-6: an intra-area run adds its per-packet
// reception fractions to the series in map order, so the last bits of
// its bin sums differ from process to process.
func runDigest(r *experiment.RunResult) (string, error) {
	bins := make([][2]int64, r.Series.Bins())
	for i := range bins {
		rate, _ := r.Series.Rate(i)
		bins[i] = [2]int64{int64(r.Series.Count(i)), int64(math.Round(rate * 1e6))}
	}
	b, err := json.Marshal(struct {
		Bins              [][2]int64
		PacketsSent       int
		Protocol          geonet.Stats
		AttackerStats     attack.Stats
		LatencySumSeconds float64
		LatencyCount      uint64
	}{bins, r.PacketsSent, r.Protocol, r.AttackerStats, r.LatencySumSeconds, r.LatencyCount})
	if err != nil {
		return "", fmt.Errorf("digesting run: %w", err)
	}
	return digest(b), nil
}

// traceSinks are the observers of one observed run: a JSONL writer over
// a byte counter, and per-node trace counters.
type traceSinks struct {
	tracer   *trace.Tracer
	jsonl    *trace.JSONLWriter
	counters *trace.Counters
	bytes    *countingWriter
}

func newTraceSinks() *traceSinks {
	s := &traceSinks{counters: trace.NewCounters(), bytes: &countingWriter{}}
	s.jsonl = trace.NewJSONLWriter(s.bytes)
	s.tracer = trace.New(s.jsonl, s.counters)
	return s
}

func (s *traceSinks) flush(t *tally) error {
	if err := s.jsonl.Flush(); err != nil {
		return err
	}
	totals := s.counters.Totals()
	for _, n := range totals.Events {
		t.records += n
	}
	t.traceBytes += s.bytes.n
	return nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += uint64(len(p))
	return len(p), nil
}

// tally accumulates the counters a repetition reads from the simulator's
// public result structs.
type tally struct {
	protocol     geonet.Stats
	attack       attack.Stats
	radio        radio.Stats
	pool         radio.PoolStats
	packets      uint64
	events       uint64
	verdicts     uint64
	records      uint64
	traceBytes   uint64
	pending      []float64
	cells        int
	journalBytes int64
}

func (t *tally) addRun(r *experiment.RunResult) {
	t.protocol.Add(r.Protocol)
	t.attack.Add(r.AttackerStats)
	t.packets += uint64(r.PacketsSent)
	t.events += r.Events
	if r.Detection != nil {
		t.verdicts += r.Detection.Verdicts
	}
}

// counts renders the tally as the count metrics of the per-layer set.
func (t *tally) counts() map[string]float64 {
	p := t.protocol
	dataTx := p.Originated + p.GFForwarded + p.CBFForwarded + p.TSBForwarded
	rx := t.radio.Delivered + t.radio.Overheard
	return map[string]float64{
		"sim.events":              float64(t.events),
		"sim.pending_p50":         quantile(t.pending, 0.5),
		"sim.pending_max":         quantile(t.pending, 1),
		"radio.tx":                float64(t.radio.Transmitted),
		"radio.rx":                float64(rx),
		"radio.rx_per_tx":         ratio(rx, t.radio.Transmitted),
		"radio.pool_miss_ratio":   ratio(t.pool.Misses(), t.pool.Hits()+t.pool.Misses()),
		"geonet.beacons_rx":       float64(p.BeaconsReceived),
		"geonet.data_tx":          float64(dataTx),
		"geonet.delivered":        float64(p.Delivered),
		"geonet.tx_per_delivery":  ratio(dataTx, p.Delivered),
		"geonet.cbf_armed":        float64(p.CBFBuffered),
		"geonet.cbf_cancel_ratio": ratio(p.CBFCanceled, p.CBFBuffered),
		"geonet.drops":            float64(p.GFExpired + p.GFFiltered + p.RHLExpired + p.AuthFailures + p.DecodeErrors + p.EchoesDropped + p.StopDropped),
		"attack.replays":          float64(t.attack.BeaconsReplayed + t.attack.PacketsReplayed),
		"experiment.packets":      float64(t.packets),
		"trace.records":           float64(t.records),
		"trace.bytes":             float64(t.traceBytes),
		"detect.verdicts":         float64(t.verdicts),
		"campaign.cells":          float64(t.cells),
		"campaign.journal_kb":     float64(t.journalBytes) / 1e3,
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
