// Package georoute is a pure-Go reproduction of "Breaking Geographic
// Routing Among Connected Vehicles" (Liu, Shekhar, Peng — DSN 2023).
//
// It contains a complete simulated vehicular networking stack — a
// deterministic discrete-event engine, a unit-disk radio medium with the
// paper's DSRC/C-V2X field-test ranges, an IDM traffic substrate, a
// simulated ITS PKI, and an ETSI EN 302 636-4-1 GeoNetworking router with
// Greedy Forwarding and Contention-Based Forwarding — plus the paper's two
// outsider attacks (inter-area interception, intra-area blockage), its two
// standard-compatible mitigations (GF plausibility check, CBF RHL-drop
// check), and an experiment harness that regenerates every table and
// figure of the paper's evaluation.
//
// # Quick start
//
//	s := georoute.DefaultScenario()
//	s.AttackMode = georoute.AttackInterArea
//	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSWorst)
//	ab := georoute.RunAB(s, 10)
//	fmt.Printf("interception rate γ = %.1f%%\n", 100*ab.DropRate())
//
// Higher-level entry points, one per layer:
//
//   - RunOnce runs one seeded arm; RunOnceObserved threads a tracer,
//     telemetry gauges and detection monitors (Observe) through it.
//     RunArm and RunAB fold several seeded runs of one or two arms.
//   - Figures returns the registry of runnable paper figures
//     (fig7a…fig14b); each Figure.Run produces per-bin reception series,
//     measured γ/λ per arm pair, and the paper-reported values to compare
//     against. An optional ObserveHook observes each (arm, seed) cell.
//   - RunCampaign runs a figure sweep as a resumable, partitionable job;
//     its figure artifacts match Figure.Run's byte for byte.
//   - RunHazard and RunCurve reproduce the traffic-efficiency and
//     road-safety showcases (Figs 12 and 13).
//   - BuildWorld and BuildScaleWorld expose the underlying simulation
//     world for custom scenarios and scale benchmarks (see the examples
//     directory).
package georoute

import (
	"context"
	"io"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/campaign"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/mitigation"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/showcase"
	"github.com/vanetsec/georoute/internal/telemetry"
	"github.com/vanetsec/georoute/internal/trace"
	"github.com/vanetsec/georoute/internal/traffic"
	"github.com/vanetsec/georoute/internal/vanet"
)

// Geometry -----------------------------------------------------------------

// Point is a position on the local plane, in meters.
type Point = geo.Point

// Area is a GeoNetworking destination area (circle, rectangle or ellipse).
type Area = geo.Area

// Pt constructs a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewRect constructs a rectangular destination area with half side
// lengths a (along the azimuth) and b.
func NewRect(c Point, a, b, azimuthDeg float64) Area { return geo.NewRect(c, a, b, azimuthDeg) }

// Radio --------------------------------------------------------------------

// Technology identifies the access-layer technology (DSRC or CV2X).
type Technology = radio.Technology

// RangeClass selects a Table II percentile of the communication range.
type RangeClass = radio.RangeClass

// Access technologies and range classes (paper Table II).
const (
	DSRC = radio.DSRC
	CV2X = radio.CV2X

	LoSMedian  = radio.LoSMedian
	NLoSMedian = radio.NLoSMedian
	NLoSWorst  = radio.NLoSWorst
)

// Range returns the Table II communication range in meters.
func Range(t Technology, c RangeClass) float64 { return radio.Range(t, c) }

// Protocol -----------------------------------------------------------------

// Address is a GeoNetworking address.
type Address = geonet.Address

// Packet is a decoded GeoNetworking PDU.
type Packet = geonet.Packet

// Attacks ------------------------------------------------------------------

// Attack modes.
const (
	AttackNone      = attack.None
	AttackInterArea = attack.InterArea
	AttackIntraArea = attack.IntraArea
)

// Mitigations ----------------------------------------------------------------

// DefaultRHLMaxDrop is the paper's RHL-drop threshold of 3.
const DefaultRHLMaxDrop = mitigation.DefaultRHLMaxDrop

// World --------------------------------------------------------------------

// World is an assembled simulation: engine, radio, PKI, traffic, routers.
type World = vanet.World

// WorldConfig parameterizes BuildWorld.
type WorldConfig = vanet.Config

// RoadConfig describes road geometry.
type RoadConfig = traffic.RoadConfig

// BuildWorld assembles a simulation world.
func BuildWorld(cfg WorldConfig) *World { return vanet.New(cfg) }

// ScaleWorldConfig parameterizes BuildScaleWorld.
type ScaleWorldConfig = vanet.ScaleConfig

// BuildScaleWorld assembles a multi-segment world for engine-scale
// benchmarks: several RF-isolated copies of one road segment sharing a
// single engine and medium (see internal/vanet.NewScaleWorld).
func BuildScaleWorld(cfg ScaleWorldConfig) *World { return vanet.NewScaleWorld(cfg) }

// Well-known static addresses used by the experiments.
const (
	WestDestAddr = vanet.WestDestAddr
	EastDestAddr = vanet.EastDestAddr
)

// Experiments ----------------------------------------------------------------

// Scenario is a fully parameterized experiment arm.
type Scenario = experiment.Scenario

// Workloads.
const (
	InterArea = experiment.InterArea
	IntraArea = experiment.IntraArea
)

// DefaultScenario returns the paper's default simulation settings (§IV-A).
func DefaultScenario() Scenario { return experiment.Default() }

// ForwardStrategy bundles the next-hop and contention policies of one
// registered forwarding strategy (the forwarder arena).
type ForwardStrategy = geonet.Strategy

// ForwarderNames returns the registered strategy names in sorted order.
func ForwarderNames() []string { return geonet.StrategyNames() }

// LookupForwarder resolves a strategy name ("" = the default).
func LookupForwarder(name string) (ForwardStrategy, bool) { return geonet.LookupStrategy(name) }

// RunOnce executes a single seeded run of a scenario arm.
func RunOnce(s Scenario, seed uint64) experiment.RunResult { return experiment.RunOnce(s, seed) }

// Observe bundles the optional per-run observers (lifecycle tracer,
// telemetry gauges, misbehavior-detection monitors); the zero Observe is
// an unobserved run.
type Observe = experiment.Observe

// RunOnceObserved is RunOnce with observers threaded through the stack.
func RunOnceObserved(s Scenario, seed uint64, obs Observe) experiment.RunResult {
	return experiment.RunOnceObserved(s, seed, obs)
}

// RunArm executes several seeded runs of one arm and merges the series.
func RunArm(s Scenario, runs int) experiment.RunResult { return experiment.RunArm(s, runs) }

// RunAB executes the attack-free and attacked arms of a scenario.
func RunAB(s Scenario, runs int) metrics.ABResult { return experiment.RunAB(s, runs) }

// Figure is a runnable reproduction of one of the paper's plots.
type Figure = experiment.Figure

// FigureResult carries a figure's measured series and drop rates.
type FigureResult = experiment.FigureResult

// ExperimentCell identifies one (figure, arm, seed) run unit.
type ExperimentCell = experiment.Cell

// ObserveHook provisions the observers of each cell Figure.Run executes
// (nil = an unobserved run).
type ObserveHook = experiment.ObserveHook

// Figures returns the registry of reproducible experiments keyed by ID
// (fig7a…fig14b, fig9-range-sweep, ...).
func Figures() map[string]Figure { return experiment.Figures() }

// FigureIDs returns the registry keys in sorted order.
func FigureIDs() []string { return experiment.FigureIDs() }

// Tracing --------------------------------------------------------------------
//
// The lifecycle tracer (internal/trace) observes every packet event —
// originate, TX, RX, deliver, every categorized drop, CBF arm/cancel,
// GF buffering, unicast losses, attacker captures and replays — without
// changing simulated outcomes. A nil tracer costs nothing on the hot
// receive path.

// Tracer fans packet-lifecycle records out to its sinks.
type Tracer = trace.Tracer

// FileTracer writes a JSONL trace plus a counter-rollup artifact.
type FileTracer = trace.FileTracer

// NewFileTracer opens a JSONL trace file; Close writes the counter
// rollup next to it.
func NewFileTracer(path string) (*FileTracer, error) { return trace.NewFileTracer(path) }

// Telemetry ------------------------------------------------------------------
//
// The telemetry registry (internal/telemetry) samples live run and
// campaign state — engine queue depth, events/sec, radio in-flight
// counts, CBF contention-buffer occupancy, campaign progress — into
// lock-free gauge/counter cells, and serves them over HTTP as Prometheus
// text exposition, JSON, and net/http/pprof profiles. A nil registry
// disables everything: handles come back nil and every publish is an
// inlined no-op, so instrumented hot paths cost nothing with telemetry
// off. Sampling is pure observation — simulated outcomes and campaign
// artifacts are byte-identical with telemetry on or off.

// TelemetryRegistry holds live metric cells and serves snapshots.
type TelemetryRegistry = telemetry.Registry

// TelemetryServer is a live /metrics + /telemetry.json + /debug/pprof
// HTTP server over a registry.
type TelemetryServer = telemetry.Server

// RunTelemetry bundles the per-run gauge handles sampled by a world.
type RunTelemetry = telemetry.RunGauges

// NewTelemetryRegistry builds an empty registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewRunTelemetry registers one worker slot's run gauges (nil registry →
// nil, which every sample site tolerates).
func NewRunTelemetry(r *TelemetryRegistry, worker int) *RunTelemetry {
	return telemetry.NewRunGauges(r, worker)
}

// RegisterRuntimeMetrics adds Go-runtime memory/GC/goroutine gauges,
// refreshed only when scraped.
func RegisterRuntimeMetrics(r *TelemetryRegistry) { telemetry.RegisterRuntime(r) }

// ServeTelemetry starts the exposition server on addr (":0" picks a free
// port; the resolved address is in Server.Addr).
func ServeTelemetry(r *TelemetryRegistry, addr string) (*TelemetryServer, error) {
	return telemetry.ListenAndServe(r, addr)
}

// WriteTelemetryDebugDump writes a full goroutine stack dump and a
// telemetry snapshot into dir (the SIGQUIT handler's backend) and returns
// both paths.
func WriteTelemetryDebugDump(dir string, r *TelemetryRegistry) (stackPath, snapPath string, err error) {
	return telemetry.WriteDebugDump(dir, r)
}

// ValidateMetricsExposition strict-checks a Prometheus text-format
// exposition (as served on /metrics) for well-formedness.
func ValidateMetricsExposition(r io.Reader) error { return telemetry.ValidateExposition(r) }

// Campaigns ------------------------------------------------------------------
//
// A campaign runs a declarative experiment sweep — (figure × arm × seed)
// cells over the registry, plus optional showcases — as a resumable job:
// every completed cell is journaled to results/<name>/journal.jsonl, a
// restart replays the journal and executes only the missing cells, and
// the finalize step writes per-figure JSON artifacts whose bytes are
// identical whether or not the campaign was interrupted. A campaign splits
// across machines as static parts whose journals one run then merges.

// CampaignSpec declares a campaign (see the campaigns/ directory).
type CampaignSpec = campaign.Spec

// CampaignOptions tunes a campaign run (results directory, worker count,
// resume, part, merge).
type CampaignOptions = campaign.Options

// CampaignInfo summarizes a finished or interrupted campaign run.
type CampaignInfo = campaign.Info

// ErrCampaignInterrupted reports a campaign stopped before completing;
// rerun with Resume to continue it.
var ErrCampaignInterrupted = campaign.ErrInterrupted

// LoadCampaignSpec reads and validates a JSON campaign spec.
func LoadCampaignSpec(path string) (CampaignSpec, error) { return campaign.LoadSpec(path) }

// RunCampaign executes (or resumes) a campaign.
func RunCampaign(ctx context.Context, sp CampaignSpec, opts CampaignOptions) (CampaignInfo, error) {
	return campaign.Run(ctx, sp, opts)
}

// CampaignPart is a static share of a campaign's cells, "i/n" (see
// CampaignOptions.Part and CampaignOptions.Merge).
type CampaignPart = campaign.Part

// ParseCampaignPart parses "i/n" with 0 <= i < n.
func ParseCampaignPart(s string) (CampaignPart, error) { return campaign.ParsePart(s) }

// FigureArtifact is the machine-readable per-figure result written by
// campaign finalization and by geosim -format json.
type FigureArtifact = campaign.FigureArtifact

// HazardArtifact is the machine-readable Figure 12 showcase result.
type HazardArtifact = campaign.HazardArtifact

// CurveArtifact is the machine-readable Figure 13 showcase result.
type CurveArtifact = campaign.CurveArtifact

// TablesArtifact is the machine-readable Table I/II configuration.
type TablesArtifact = campaign.TablesArtifact

// BuildFigureArtifact converts a FigureResult into its artifact form.
func BuildFigureArtifact(res FigureResult) FigureArtifact {
	return campaign.BuildFigureArtifact(res)
}

// BuildCurveArtifact assembles the Figure 13 artifact from a run pair.
func BuildCurveArtifact(free, attacked CurveResult) CurveArtifact {
	return campaign.BuildCurveArtifact(free, attacked)
}

// BuildTablesArtifact assembles the configuration artifact.
func BuildTablesArtifact() TablesArtifact { return campaign.BuildTablesArtifact() }

// RunHazardArtifact runs a Figure 12 case over several seeds and folds it
// with the campaign aggregation.
func RunHazardArtifact(c HazardCase, seeds int) HazardArtifact {
	return campaign.RunHazardArtifact(c, seeds)
}

// Metrics --------------------------------------------------------------------

// ABResult pairs attack-free and attacked measurement series. Multi-run
// harnesses (RunAB, Figure.Run) populate its Spread fields with per-run
// dispersion statistics.
type ABResult = metrics.ABResult

// Spread reports per-run dispersion (sample mean, stddev, 95% CI).
type Spread = metrics.Spread

// RenderTable renders labeled per-bin series as an aligned text table.
func RenderTable(width time.Duration, series map[string][]float64) string {
	return metrics.Table(width, series)
}

// RenderCSV renders labeled per-bin series as CSV.
func RenderCSV(width time.Duration, series map[string][]float64) string {
	return metrics.CSV(width, series)
}

// Showcases ------------------------------------------------------------------

// HazardCase selects a Figure 12 case (CaseGF or CaseCBF).
type HazardCase = showcase.HazardCase

// Figure 12 cases.
const (
	CaseGF  = showcase.CaseGF
	CaseCBF = showcase.CaseCBF
)

// HazardConfig parameterizes RunHazard.
type HazardConfig = showcase.HazardConfig

// HazardResult is the outcome of a Figure 12 run.
type HazardResult = showcase.HazardResult

// RunHazard executes a Figure 12 traffic-efficiency scenario.
func RunHazard(cfg HazardConfig) HazardResult { return showcase.RunHazard(cfg) }

// CurveConfig parameterizes RunCurve.
type CurveConfig = showcase.CurveConfig

// CurveResult is the outcome of a Figure 13 run.
type CurveResult = showcase.CurveResult

// RunCurve executes the Figure 13 blind-curve road-safety scenario.
func RunCurve(cfg CurveConfig) CurveResult { return showcase.RunCurve(cfg) }
