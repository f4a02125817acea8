// Command geosim runs the paper's experiments and prints the series and
// summary statistics that regenerate its tables and figures.
//
// Usage:
//
//	geosim -list
//	geosim -experiment fig7a -runs 100
//	geosim -experiment fig9a -runs 10 -format csv
//	geosim -experiment fig7a -runs 10 -format json
//	geosim -experiment fig12a
//	geosim -experiment all -runs 5
//
// Long sweeps run as resumable campaigns (see campaigns/ for bundled
// specs). A campaign journals every completed (figure, arm, seed) cell to
// results/<name>/journal.jsonl; interrupting it (Ctrl-C) and rerunning
// with -resume executes only the missing cells and produces byte-identical
// artifacts:
//
//	geosim -campaign campaigns/full-protocol.json
//	geosim -campaign campaigns/full-protocol.json -resume
//
// Both modes accept -trace <dir>: every simulated (figure, arm, seed)
// cell then also writes its packet-lifecycle trace (strict-schema JSONL,
// see internal/trace) plus a per-node counter rollup into that
// directory. geotrace -validate checks any such file for schema and
// conservation violations.
//
// Campaign mode additionally accepts -detect, which arms the per-node
// misbehavior plausibility monitors (internal/detect) in every figure
// cell and makes finalize write results/<name>/detection.json — per-arm
// detection latency, recall, and per-check precision. Detection is pure
// observation: every other artifact is byte-identical with it on or off.
//
// Both modes also accept -listen <addr>, which serves live telemetry over
// HTTP while the run executes — Prometheus text exposition on /metrics,
// a JSON snapshot on /telemetry.json, and the standard pprof profiles
// under /debug/pprof/ — and -progress, a periodic stderr heartbeat
// (cells done/total, throughput and ETA in campaign mode; event counts in
// figure mode). In campaign mode SIGQUIT (Ctrl-\) dumps goroutine stacks
// plus a telemetry snapshot into results/<name>/ without stopping the
// run. Telemetry is pure observation: outputs are byte-identical with it
// on or off.
//
// A campaign splits across machines as static parts: -cells i/n runs
// only the cells at canonical index ≡ i (mod n) and journals them without
// finalizing. -merge then imports the part journals (read-only), runs any
// cell they lack, and finalizes artifacts byte-identical to a
// single-process run:
//
//	geosim -campaign campaigns/full-protocol.json -cells 0/2 -results p0   # host A
//	geosim -campaign campaigns/full-protocol.json -cells 1/2 -results p1   # host B
//	geosim -campaign campaigns/full-protocol.json \
//	    -merge p0/full-protocol/journal.jsonl,p1/full-protocol/journal.jsonl
//
// With -runs 100 and the full 200 s duration a figure takes a while; use
// lower run counts for exploration. Results print to stdout; campaign
// artifacts land in results/<name>/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/vanetsec/georoute"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		expID    = flag.String("experiment", "", "experiment ID to run (see -list), or 'all'")
		runs     = flag.Int("runs", 10, "simulation runs per arm")
		format   = flag.String("format", "table", "output format: table, csv or json")
		seeds    = flag.Int("showcase-seeds", 5, "seeds for showcase experiments (fig12a/fig12b)")
		fwd      = flag.String("forwarder", "", "override the forwarding strategy of every arm in -experiment mode (see -list for names)")
		campPath = flag.String("campaign", "", "run a campaign spec (JSON, see campaigns/) instead of a single experiment")
		resume   = flag.Bool("resume", false, "resume an interrupted campaign from its journal")
		results  = flag.String("results", "results", "parent directory for campaign results")
		maxCells = flag.Int("max-cells", 0, "stop the campaign after N fresh cells (testing/CI)")
		workers  = flag.Int("workers", 0, "campaign worker pool size (default: CPUs-1)")
		traceDir = flag.String("trace", "", "write per-cell packet-lifecycle traces (JSONL + counter rollup) into this directory")
		detectOn = flag.Bool("detect", false, "campaign mode: run the misbehavior plausibility monitors in every cell and write results/<name>/detection.json (pure observation; other artifacts are byte-identical)")
		listen   = flag.String("listen", "", "serve live telemetry on this address while running: /metrics (Prometheus), /telemetry.json, /debug/pprof/")
		progress = flag.Bool("progress", false, "print a periodic progress heartbeat to stderr")
		part     = flag.String("cells", "", "campaign mode: run only part i/n of the cells (canonical index ≡ i mod n); a finished part exits 0 without artifacts")
		merge    = flag.String("merge", "", "campaign mode: comma-separated part journals to import (read-only) before running the cells still missing")
	)
	flag.Parse()

	if *list {
		printList()
		return
	}
	if err := checkFlags(*format, *runs, *seeds, *workers, *maxCells, *fwd); err != nil {
		logStderr("geosim: %v", err)
		os.Exit(2)
	}
	if *campPath != "" {
		opts := georoute.CampaignOptions{
			ResultsDir: *results,
			Resume:     *resume,
			MaxCells:   *maxCells,
			Workers:    *workers,
			TraceDir:   *traceDir,
			Detect:     *detectOn,
		}
		if *part != "" {
			p, err := georoute.ParseCampaignPart(*part)
			if err != nil {
				logStderr("geosim: -cells: %v", err)
				os.Exit(2)
			}
			opts.Part = p
		}
		if *merge != "" {
			opts.Merge = strings.Split(*merge, ",")
		}
		os.Exit(runCampaign(*campPath, opts, *listen, *progress))
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "geosim: pass -experiment <id>, -campaign <spec> or -list")
		os.Exit(2)
	}

	var reg *georoute.TelemetryRegistry
	if *listen != "" || *progress {
		reg = georoute.NewTelemetryRegistry()
		georoute.RegisterRuntimeMetrics(reg)
	}
	if *listen != "" {
		srv, err := georoute.ServeTelemetry(reg, *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geosim: %v\n", err)
			os.Exit(1)
		}
		defer shutdownTelemetry(srv)
		fmt.Fprintf(os.Stderr, "geosim: telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr)
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = georoute.FigureIDs()
		ids = append(ids, "fig12a", "fig12b", "fig13", "tableI", "tableII")
	}
	var stopHB func()
	if *progress {
		stopHB = startFigureHeartbeat(reg, *expID)
	}
	for _, id := range ids {
		if err := runExperiment(id, *runs, *format, *seeds, *traceDir, *fwd, reg); err != nil {
			fmt.Fprintf(os.Stderr, "geosim: %v\n", err)
			os.Exit(1)
		}
	}
	if stopHB != nil {
		stopHB()
	}
}

// startFigureHeartbeat prints a stderr heartbeat every two seconds while
// figure runs execute: elapsed wall clock, total simulation events, and
// the recent event rate (read from the telemetry registry, which the
// per-worker samplers publish into). The returned func stops it.
func startFigureHeartbeat(reg *georoute.TelemetryRegistry, label string) func() {
	stop := make(chan struct{})
	start := time.Now()
	go func() {
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		lastEv, lastT := 0.0, start
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				var ev float64
				for _, s := range reg.Snapshot() {
					if s.Name == "georoute_engine_events_total" {
						ev = s.Value
					}
				}
				rate := (ev - lastEv) / now.Sub(lastT).Seconds()
				fmt.Fprintf(os.Stderr, "\r%s: %v elapsed, %.0f events (%.2fM ev/s)      ",
					label, time.Since(start).Round(time.Second), ev, rate/1e6)
				lastEv, lastT = ev, now
			}
		}
	}()
	return func() {
		close(stop)
		fmt.Fprintln(os.Stderr)
	}
}

// checkFlags rejects out-of-range flag values before any work starts,
// in campaign and experiment mode alike; main exits 2 on its error.
func checkFlags(format string, runs, showcaseSeeds, workers, maxCells int, forwarder string) error {
	switch {
	case format != "table" && format != "csv" && format != "json":
		return fmt.Errorf("-format %q: want table, csv or json", format)
	case runs < 1:
		return fmt.Errorf("-runs %d: want at least 1", runs)
	case showcaseSeeds < 1:
		return fmt.Errorf("-showcase-seeds %d: want at least 1", showcaseSeeds)
	case workers < 0:
		return fmt.Errorf("-workers %d: want 0 (CPUs-1) or more", workers)
	case maxCells < 0:
		return fmt.Errorf("-max-cells %d: want 0 (no limit) or more", maxCells)
	}
	if forwarder != "" {
		if _, ok := georoute.LookupForwarder(forwarder); !ok {
			return fmt.Errorf("unknown forwarder %q (registered: %s)", forwarder, strings.Join(georoute.ForwarderNames(), ", "))
		}
	}
	return nil
}

func printList() {
	fmt.Println("Available experiments:")
	fmt.Println("  tableI      IDM parameters (configuration)")
	fmt.Println("  tableII     DSRC/C-V2X communication ranges (configuration)")
	figs := georoute.Figures()
	for _, id := range georoute.FigureIDs() {
		fmt.Printf("  %-11s %s\n", id, figs[id].Title)
	}
	fmt.Println("  fig12a      Hazard + GF notification: vehicles on road over time")
	fmt.Println("  fig12b      Hazard + CBF notification: vehicles on road over time")
	fmt.Println("  fig13       Blind-curve collision: speed profiles")
	fmt.Println("  all         everything above")
	fmt.Println()
	fmt.Printf("Forwarding strategies (-forwarder): %s\n", strings.Join(georoute.ForwarderNames(), ", "))
	fmt.Println("Campaigns (resumable sweeps): geosim -campaign campaigns/<spec>.json")
}

// logStderr writes one line to stderr, the stream campaign progress uses.
func logStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// shutdownTelemetry drains in-flight scrapes before closing the listener,
// so a /metrics request racing process exit gets its response instead of
// a reset. Falls back to a hard close after the grace period.
func shutdownTelemetry(srv *georoute.TelemetryServer) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// runCampaign executes a campaign spec and reports progress on stderr.
// Exit codes: 0 complete (or, with -cells, the part done), 1 error,
// 3 interrupted (resume with -resume).
func runCampaign(specPath string, opts georoute.CampaignOptions, listen string, progress bool) int {
	sp, err := georoute.LoadCampaignSpec(specPath)
	if err != nil {
		logStderr("geosim: %v", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reg *georoute.TelemetryRegistry
	if listen != "" || progress {
		reg = georoute.NewTelemetryRegistry()
		georoute.RegisterRuntimeMetrics(reg)
	}
	if listen != "" {
		srv, err := georoute.ServeTelemetry(reg, listen)
		if err != nil {
			logStderr("geosim: %v", err)
			return 1
		}
		// Shutdown (not Close) so a /metrics scrape racing the end of the
		// run is answered before the listener goes away.
		defer shutdownTelemetry(srv)
		logStderr("geosim: telemetry on http://%s/metrics (pprof under /debug/pprof/)", srv.Addr)
	}

	// SIGQUIT (Ctrl-\) dumps goroutine stacks and a telemetry snapshot
	// into the campaign's results directory and keeps running — the
	// live-debugging hatch for a stuck or slow campaign.
	dumpDir := filepath.Join(opts.ResultsDir, sp.Name)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			stacks, snap, err := georoute.WriteTelemetryDebugDump(dumpDir, reg)
			if err != nil {
				logStderr("\ngeosim: debug dump: %v", err)
				continue
			}
			logStderr("\ngeosim: SIGQUIT — wrote %s and %s", stacks, snap)
		}
	}()

	start := time.Now()
	var doneCells, totalCells, replayedCells atomic.Int64
	if progress {
		hb := time.NewTicker(2 * time.Second)
		defer hb.Stop()
		go func() {
			for range hb.C {
				done, total := doneCells.Load(), totalCells.Load()
				executed := done - replayedCells.Load()
				elapsed := time.Since(start).Seconds()
				if total == 0 || elapsed <= 0 {
					continue
				}
				rate := float64(executed) / elapsed
				eta := "n/a"
				if rate > 0 {
					eta = (time.Duration(float64(total-done)/rate) * time.Second).Round(time.Second).String()
				}
				fmt.Fprintf(os.Stderr, "\rcampaign %s: %d/%d cells  %.2f cells/s  ETA %-12s", sp.Name, done, total, rate, eta)
			}
		}()
	}
	last := ""
	opts.Telemetry = reg
	opts.Progress = func(done, total, replayed int, key string) {
		doneCells.Store(int64(done))
		totalCells.Store(int64(total))
		replayedCells.Store(int64(replayed))
		if key == "" {
			if replayed > 0 {
				logStderr("campaign %s: replayed %d/%d cells from journal", sp.Name, replayed, total)
			}
			return
		}
		last = key
		fmt.Fprintf(os.Stderr, "\rcampaign %s: %d/%d cells  %-40s", sp.Name, done, total, key)
	}
	info, err := georoute.RunCampaign(ctx, sp, opts)
	if last != "" {
		fmt.Fprintln(os.Stderr)
	}
	switch {
	case errors.Is(err, georoute.ErrCampaignInterrupted):
		resumeCmd := "geosim -campaign " + specPath + " -resume"
		if opts.Part != (georoute.CampaignPart{}) {
			resumeCmd += fmt.Sprintf(" -cells %d/%d", opts.Part.Index, opts.Part.Count)
		}
		logStderr("geosim: %v", err)
		logStderr("geosim: journal saved — continue with: %s", resumeCmd)
		return 3
	case err != nil:
		logStderr("geosim: %v", err)
		return 1
	}
	journaled := info.Replayed + info.Merged + info.Executed
	logStderr("campaign %s: %d/%d cells journaled in %v (%d replayed, %d merged, %d executed)",
		sp.Name, journaled, info.Total, time.Since(start).Round(time.Second), info.Replayed, info.Merged, info.Executed)
	if journaled < info.Total {
		logStderr("campaign %s: part done — merge the part journals with -merge to finalize", sp.Name)
		return 0
	}
	fmt.Printf("artifacts written to %s\n", info.Dir)
	return 0
}

func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func runExperiment(id string, runs int, format string, showcaseSeeds int, traceDir, forwarder string, reg *georoute.TelemetryRegistry) error {
	switch id {
	case "tableI":
		if format == "json" {
			return printJSON(georoute.BuildTablesArtifact())
		}
		printTableI()
		return nil
	case "tableII":
		if format == "json" {
			return printJSON(georoute.BuildTablesArtifact())
		}
		printTableII()
		return nil
	case "fig12a":
		return runHazard(georoute.CaseGF, showcaseSeeds, format)
	case "fig12b":
		return runHazard(georoute.CaseCBF, showcaseSeeds, format)
	case "fig13":
		return runCurve(format)
	}
	fig, ok := georoute.Figures()[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", id)
	}
	if forwarder != "" {
		// Override every arm's strategy; the tournament figures already
		// sweep all of them and are left as defined.
		for i := range fig.Arms {
			fig.Arms[i].Scenario.Forwarder = forwarder
		}
	}
	if format == "json" {
		res, err := runFigure(fig, runs, traceDir, reg)
		if err != nil {
			return err
		}
		return printJSON(georoute.BuildFigureArtifact(res))
	}
	fmt.Printf("== %s: %s (%d runs/arm) ==\n", fig.ID, fig.Title, runs)
	start := time.Now()
	res, err := runFigure(fig, runs, traceDir, reg)
	if err != nil {
		return err
	}
	fmt.Printf("-- completed in %v --\n", time.Since(start).Round(time.Second))

	fmt.Println("\nPer-bin reception rates:")
	if format == "csv" {
		fmt.Print(georoute.RenderCSV(res.BinWidth, res.Rates))
	} else {
		fmt.Print(georoute.RenderTable(res.BinWidth, res.Rates))
	}

	fmt.Println("\nOverall reception per arm (mean over runs ± 95% CI):")
	arms := make([]string, 0, len(res.Overall))
	for l := range res.Overall {
		arms = append(arms, l)
	}
	sort.Strings(arms)
	for _, l := range arms {
		fmt.Printf("  %-16s %6.1f%%%s\n", l, 100*res.Overall[l], spreadSuffix(res.ArmSpread[l]))
	}

	fmt.Println("\nDrop rates (γ/λ), measured vs paper:")
	for _, p := range res.Figure.Pairs {
		paper := "   n/a"
		if p.PaperDrop >= 0 {
			paper = fmt.Sprintf("%5.1f%%", 100*p.PaperDrop)
		}
		fmt.Printf("  %-16s measured %5.1f%%   paper %s%s\n",
			p.Label, 100*res.Drops[p.Label], paper, spreadSuffix(res.DropSpread[p.Label]))
	}

	if strings.HasPrefix(id, "fig8") || strings.HasPrefix(id, "fig10") {
		fmt.Println("\nAccumulated drop over time:")
		if format == "csv" {
			fmt.Print(georoute.RenderCSV(res.BinWidth, res.AccumDrops))
		} else {
			fmt.Print(georoute.RenderTable(res.BinWidth, res.AccumDrops))
		}
	}
	fmt.Println()
	return nil
}

// runFigure executes a figure, optionally writing one trace artifact pair
// (<figure>__<arm>__<seed>.jsonl + .counters.json) per cell into traceDir
// and publishing live per-worker gauges into the telemetry registry.
func runFigure(fig georoute.Figure, runs int, traceDir string, reg *georoute.TelemetryRegistry) (georoute.FigureResult, error) {
	var hook georoute.ObserveHook
	if traceDir != "" || reg != nil {
		if traceDir != "" {
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				return georoute.FigureResult{}, err
			}
		}
		hook = func(c georoute.ExperimentCell, worker int) (georoute.Observe, func() error, error) {
			obs := georoute.Observe{Gauges: georoute.NewRunTelemetry(reg, worker)}
			if traceDir == "" {
				return obs, nil, nil
			}
			name := fmt.Sprintf("%s__%s__%d.jsonl", c.Figure, c.Arm, c.Seed)
			ft, err := georoute.NewFileTracer(filepath.Join(traceDir, name))
			if err != nil {
				return obs, nil, err
			}
			obs.Tracer = ft.Tracer()
			return obs, ft.Close, nil
		}
	}
	return fig.Run(runs, hook)
}

// spreadSuffix renders per-run dispersion when there was more than one
// run: sample stddev and the 95% confidence interval of the mean.
func spreadSuffix(s georoute.Spread) string {
	if s.Runs < 2 {
		return ""
	}
	return fmt.Sprintf("   (runs %d: σ=%.1f, 95%% CI %.1f–%.1f%%)",
		s.Runs, 100*s.Stddev, 100*s.CILow, 100*s.CIHigh)
}

func printTableI() {
	fmt.Println("== Table I: Intelligent Driver Model parameters ==")
	fmt.Println("  Desired velocity          30 m/s")
	fmt.Println("  Safe time headway         1.5 s")
	fmt.Println("  Maximum acceleration      1.0 m/s^2")
	fmt.Println("  Comfortable deceleration  3.0 m/s^2")
	fmt.Println("  Acceleration exponent     4")
	fmt.Println("  Minimum distance          2 m")
	fmt.Println("  (vehicle length           4.5 m)")
}

func printTableII() {
	fmt.Println("== Table II: communication ranges (Utah DOT field test) ==")
	fmt.Printf("  %-14s %9s %9s\n", "Comm. range", "DSRC", "C-V2X")
	rows := []struct {
		label string
		class georoute.RangeClass
	}{
		{"LoS (median)", georoute.LoSMedian},
		{"NLoS (median)", georoute.NLoSMedian},
		{"NLoS (worst)", georoute.NLoSWorst},
	}
	for _, r := range rows {
		fmt.Printf("  %-14s %7.0f m %7.0f m\n", r.label,
			georoute.Range(georoute.DSRC, r.class), georoute.Range(georoute.CV2X, r.class))
	}
}

func runHazard(c georoute.HazardCase, seeds int, format string) error {
	art := georoute.RunHazardArtifact(c, seeds)
	if format == "json" {
		return printJSON(art)
	}
	name := "fig12a (GF case)"
	if c == georoute.CaseCBF {
		name = "fig12b (CBF case)"
	}
	fmt.Printf("== %s: vehicles on road over time, %d seeds ==\n", name, seeds)
	af, atk := art.Arms["af"], art.Arms["atk"]
	fmt.Printf("%-8s %12s %12s\n", "t(s)", "af", "atk")
	for i := 0; i < len(af.MeanVehicleCount); i += 10 {
		atkV := 0.0
		if i < len(atk.MeanVehicleCount) {
			atkV = atk.MeanVehicleCount[i]
		}
		fmt.Printf("%-8d %12.1f %12.1f\n", i, af.MeanVehicleCount[i], atkV)
	}
	for _, arm := range []string{"af", "atk"} {
		a := art.Arms[arm]
		fmt.Printf("%s: entrance warned in %d/%d runs", arm, a.GateClosedRuns, seeds)
		if a.GateClosedRuns > 0 {
			fmt.Printf(" (mean %v)", (time.Duration(a.MeanGateCloseSeconds * float64(time.Second))).Round(time.Second))
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func runCurve(format string) error {
	af := georoute.RunCurve(georoute.CurveConfig{Seed: 1})
	atk := georoute.RunCurve(georoute.CurveConfig{Seed: 1, Attacked: true})
	if format == "json" {
		return printJSON(georoute.BuildCurveArtifact(af, atk))
	}
	fmt.Println("== fig13: blind-curve speed profiles ==")
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "t(s)", "V1(af)", "V2(af)", "V1(atk)", "V2(atk)")
	for i := 0; i < len(af.Times); i += 10 {
		row := func(xs []float64) float64 {
			if i < len(xs) {
				return xs[i]
			}
			return 0
		}
		fmt.Printf("%-8.1f %10.1f %10.1f %10.1f %10.1f\n",
			af.Times[i], row(af.V1Speed), row(af.V2Speed), row(atk.V1Speed), row(atk.V2Speed))
	}
	fmt.Printf("af : warning %v -> V2 warned %v, collision=%v (min gap %.1f m)\n",
		af.WarningSentAt.Round(time.Millisecond), af.V2WarnedAt.Round(time.Millisecond), af.Collision, af.MinGap)
	fmt.Printf("atk: warning %v -> V2 warned=%v, collision=%v at %v (min gap %.1f m)\n",
		atk.WarningSentAt.Round(time.Millisecond), atk.V2WarnedAt > 0, atk.Collision,
		atk.CollisionAt.Round(time.Millisecond), atk.MinGap)
	fmt.Println()
	return nil
}
