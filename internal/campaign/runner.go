package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/showcase"
	"github.com/vanetsec/georoute/internal/telemetry"
)

// ErrInterrupted reports that the campaign stopped before completing all
// cells (context cancellation or a MaxCells budget). Everything finished
// so far is journaled; rerunning with Resume executes only the remainder.
var ErrInterrupted = errors.New("campaign interrupted before completion")

// Options tunes a campaign run.
type Options struct {
	// ResultsDir is the parent directory; the campaign writes into
	// <ResultsDir>/<spec.Name>/. Defaults to "results".
	ResultsDir string
	// Workers bounds the worker pool (default experiment.MaxParallel()).
	Workers int
	// Resume continues an existing journal. Without it, a journal that
	// already holds cells is an error rather than silently extended.
	Resume bool
	// MaxCells stops the run after this many freshly executed cells
	// (0 = unlimited). Used by tests and the CI smoke job to interrupt a
	// campaign at a deterministic point.
	MaxCells int
	// TraceDir, when set, threads a packet-lifecycle tracer through every
	// figure cell executed in this process and writes one
	// <cellkey>.jsonl + <cellkey>.counters.json pair per cell into the
	// directory ('/' in keys becomes "__"). Tracing never changes the
	// simulated outcome, only observes it; replayed (journaled) cells are
	// not re-traced. Showcase cells (fig12/fig13) are not traced.
	TraceDir string
	// Progress, when set, is called after every cell (replayed cells are
	// reported once, up front, with an empty key).
	Progress func(done, total, replayed int, key string)
	// Telemetry, when non-nil, receives live campaign gauges (cells
	// done/total, throughput, ETA) and per-worker run gauges (queue depth,
	// events/sec, CBF occupancy, ...), read through its JSON snapshot.
	// Telemetry is pure observation: artifacts are byte-identical with it
	// on or off.
	Telemetry *telemetry.Registry
	// Detect runs the misbehavior plausibility monitors in every figure
	// cell and makes Finalize write results/<name>/detection.json — the
	// per-arm detection-latency and precision/recall report. Like tracing
	// and telemetry, detection is pure observation: every other artifact
	// stays byte-identical with it on or off, which is why detection.json
	// (like resources.json) is not listed in summary.json's figure index.
	Detect bool
	// Part restricts the run to a static share of the cells (see Part).
	// A run that finishes its share but leaves the journal incomplete
	// returns without finalizing. The zero value runs every cell.
	Part Part
	// Merge lists part journals to import before running: every cell they
	// hold that this run's journal lacks is checked, journaled here, and
	// counts as done. The part files are only read.
	Merge []string
}

// Info summarizes a finished (or interrupted) campaign run.
type Info struct {
	// Dir is the campaign's results directory.
	Dir string
	// Total is the number of cells the spec enumerates.
	Total int
	// Replayed cells were recovered from the journal instead of re-run.
	Replayed int
	// Merged cells were imported from part journals (Options.Merge).
	Merged int
	// Executed cells ran in this process.
	Executed int
}

// Run executes the campaign: enumerate cells, replay the journal, import
// any part journals, run the missing cells of this run's part on the
// experiment.RunCells pool, journal each completion, and — once the journal
// holds every cell — finalize the streaming aggregates into per-figure
// artifacts. On context cancellation it stops dispatching, waits for
// in-flight cells to finish and be journaled, and returns ErrInterrupted —
// at most the cells of a hard kill are ever lost.
func Run(ctx context.Context, sp Spec, opts Options) (Info, error) {
	if err := sp.Validate(); err != nil {
		return Info{}, err
	}
	if err := opts.Part.validate(); err != nil {
		return Info{}, err
	}
	if opts.ResultsDir == "" {
		opts.ResultsDir = "results"
	}
	if opts.Workers <= 0 {
		opts.Workers = experiment.MaxParallel()
	}
	dir := filepath.Join(opts.ResultsDir, sp.Name)
	info := Info{Dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return info, fmt.Errorf("campaign: %w", err)
	}
	hook, err := experiment.CellObservers(opts.TraceDir, opts.Telemetry, opts.Detect)
	if err != nil {
		return info, fmt.Errorf("campaign: %w", err)
	}

	journalPath := filepath.Join(dir, "journal.jsonl")
	if !opts.Resume {
		if st, err := os.Stat(journalPath); err == nil && st.Size() > 0 {
			return info, fmt.Errorf("campaign: %s already exists — resume it or remove the directory to start over", journalPath)
		}
	}
	j, replayed, err := OpenJournal(journalPath, sp)
	if err != nil {
		return info, err
	}
	defer j.Close()

	cells, err := sp.Cells()
	if err != nil {
		return info, err
	}
	merged, err := importParts(opts.Merge, sp, cells, replayed)
	if err != nil {
		return info, err
	}
	info.Total = len(cells)
	info.Replayed = len(replayed)
	info.Merged = len(merged)

	agg, err := NewAggregator(sp)
	if err != nil {
		return info, err
	}
	// Feed journaled cells in canonical order (any order aggregates
	// identically, but canonical order gives deterministic error paths).
	// A merged cell reaches this run's journal only once the aggregator
	// has accepted it.
	var todo []experiment.Cell
	for i, c := range cells {
		key := c.Key()
		if res, ok := replayed[key]; ok {
			if err := agg.Feed(c, res); err != nil {
				return info, err
			}
		} else if res, ok := merged[key]; ok {
			if err := agg.Feed(c, res); err != nil {
				return info, err
			}
			if err := j.Record(key, res); err != nil {
				return info, err
			}
		} else if opts.Part.has(i) {
			todo = append(todo, c)
		}
	}
	// The cells this run ends with: all of them, unless it runs a part.
	journaled := info.Replayed + info.Merged
	target := journaled + len(todo)
	if opts.Progress != nil {
		opts.Progress(journaled, target, journaled, "")
	}
	cg := telemetry.NewCampaignGauges(opts.Telemetry)
	if cg != nil {
		cg.CellsTotal.Set(float64(target))
		cg.CellsDone.Set(float64(journaled))
		cg.CellsReplayed.Set(float64(journaled))
	}

	// Budget for this process: the MaxCells prefix of the canonical
	// remainder, so interruption points are deterministic under test.
	interrupted := false
	dispatch := todo
	if opts.MaxCells > 0 && opts.MaxCells < len(dispatch) {
		dispatch = dispatch[:opts.MaxCells]
		interrupted = true
	}

	figs := experiment.Figures()
	poolStart := time.Now()
	err = experiment.RunCells(ctx, dispatch, opts.Workers,
		func(c experiment.Cell, worker int) (CellResult, error) { return runCell(figs, c, worker, hook) },
		func(c experiment.Cell, res CellResult, err error) error {
			if err != nil {
				return err
			}
			// Journal first: a cell the aggregator has seen is always on disk.
			if err := j.Record(c.Key(), res); err != nil {
				return err
			}
			if err := agg.Feed(c, res); err != nil {
				return err
			}
			info.Executed++
			done := journaled + info.Executed
			if opts.Progress != nil {
				opts.Progress(done, target, journaled, c.Key())
			}
			if cg != nil {
				cg.CellsDone.Set(float64(done))
				if elapsed := time.Since(poolStart).Seconds(); elapsed > 0 {
					rate := float64(info.Executed) / elapsed
					cg.CellsPerSec.Set(rate)
					if rate > 0 {
						cg.ETASeconds.Set(float64(target-done) / rate)
					}
				}
			}
			return nil
		})
	if err != nil {
		return info, err
	}
	done := journaled + info.Executed
	if ctx.Err() != nil || interrupted {
		return info, fmt.Errorf("%w: %d/%d cells journaled", ErrInterrupted, done, target)
	}
	if done < info.Total {
		return info, nil // a finished part; merging the parts finalizes
	}
	return info, agg.Finalize(dir)
}

// runCell executes one cell of any kind under per-cell resource
// accounting. Figure cells run under the observers hook provisions on
// this worker (trace file, run gauges, detection; nil = unobserved).
// Showcase cells (hazard, curve) have no router receive path to observe,
// so they run without it.
func runCell(figs map[string]experiment.Figure, c experiment.Cell, worker int, hook experiment.ObserveHook) (CellResult, error) {
	return measureCell(func() (CellResult, error) {
		switch c.Figure {
		case hazardGFID, hazardCBFID:
			hc := showcase.CaseGF
			if c.Figure == hazardCBFID {
				hc = showcase.CaseCBF
			}
			r := showcase.RunHazard(showcase.HazardConfig{Case: hc, Attacked: c.Arm == "atk", Seed: c.Seed})
			return CellResult{Hazard: &r}, nil
		case curveID:
			r := showcase.RunCurve(showcase.CurveConfig{Attacked: c.Arm == "atk", Seed: c.Seed})
			return CellResult{Curve: &r}, nil
		}
		fig, ok := figs[c.Figure]
		if !ok {
			return CellResult{}, fmt.Errorf("campaign: cell %s references unknown figure", c.Key())
		}
		rr, err := fig.RunHooked(c, worker, hook)
		if err != nil {
			return CellResult{}, err
		}
		return CellResult{Run: &rr}, nil
	})
}

// RunHazardArtifact runs the Figure 12 showcase directly (outside a
// campaign) and folds it with the same aggregation the campaign finalize
// uses, so geosim's direct and campaign outputs agree.
func RunHazardArtifact(c showcase.HazardCase, seeds int) HazardArtifact {
	id := hazardGFID
	if c == showcase.CaseCBF {
		id = hazardCBFID
	}
	arms := map[string]*hazardArmAgg{"af": {}, "atk": {}}
	for _, arm := range []string{"af", "atk"} {
		for s := 1; s <= seeds; s++ {
			r := showcase.RunHazard(showcase.HazardConfig{Case: c, Attacked: arm == "atk", Seed: uint64(s)})
			arms[arm].feed(&r)
		}
	}
	a := &Aggregator{spec: Spec{HazardSeeds: seeds}, hazard: map[string]map[string]*hazardArmAgg{id: arms}}
	return a.hazardArtifact(id)
}
