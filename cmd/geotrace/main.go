// Command geotrace inspects packet lifecycles. It has three modes:
//
// Run mode traces one cell of a paper figure, <figure>/<arm>/<seed>,
// through the same entry every geosim cell runs (experiment.Figure.RunCell)
// with the lifecycle tracer (internal/trace) threaded through the radio
// medium, every router stack and the attacker, then prints each event, the
// reconstructed per-packet hop chains, and the conservation check — every
// traced packet copy must balance as delivered + dropped + buffered +
// armed. With -jsonl it writes the same JSONL and counter rollup that
// `geosim -trace` writes for that cell:
//
//	geotrace -cell fig7a/atk_wN/1 -quiet
//	geotrace -cell fig9a/atk_mN/11 -jsonl run.jsonl
//
// Validate mode strict-decodes an existing JSONL trace (for example one
// written by `geosim -trace`), re-runs the analyzer, and fails on schema
// or conservation violations. CI runs it over every trace artifact:
//
//	geotrace -validate results/smoke/traces/fig7a__af_wN__1.jsonl
//
// Detect mode replays an existing JSONL trace through the misbehavior
// detector (internal/detect), the same trace sink the online run uses.
// JSONL carries no position vectors, so the beacon inter-arrival, churn
// and own-echo checks run; each verdict is printed with its evidence,
// followed by the run summary. -attacker labels the ground-truth replay
// pseudonym (default: the built-in attacker's); pass 0 for unlabeled
// traces:
//
//	geotrace -detect results/smoke/traces/fig7a__atk_mL__1.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/trace"
)

func main() {
	var (
		cellKey  = flag.String("cell", "fig7a/atk_wN/1", "figure cell to trace, <figure>/<arm>/<seed>")
		beacons  = flag.Bool("beacons", false, "include beacon events in the printed trace")
		jsonl    = flag.String("jsonl", "", "also write the raw trace to this JSONL file (plus a .counters.json rollup)")
		quiet    = flag.Bool("quiet", false, "suppress the per-event lines, print only the analysis")
		validate = flag.String("validate", "", "validate an existing JSONL trace file and exit")
		detPath  = flag.String("detect", "", "replay an existing JSONL trace through the offline misbehavior detector and exit")
		attacker = flag.Uint64("attacker", uint64(attack.DefaultPseudonym), "with -detect: ground-truth attacker pseudonym for verdict labeling (0 = unlabeled)")
	)
	flag.Parse()

	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fig, cell, err := checkFlags(*cellKey, set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geotrace: %v\n", err)
		os.Exit(2)
	}
	if *validate != "" {
		os.Exit(runValidate(*validate))
	}
	if *detPath != "" {
		os.Exit(runDetect(*detPath, *attacker, *quiet))
	}
	os.Exit(runTrace(fig, cell, *beacons, *jsonl, *quiet))
}

// runOnly are the flags only run mode reads.
var runOnly = []string{"cell", "beacons", "jsonl"}

// checkFlags rejects flags the chosen mode does not read (set holds the
// flags given on the command line) and, in run mode, resolves the -cell
// key against the figure registry before any work starts; main exits 2
// on its error.
func checkFlags(cellKey string, set map[string]bool) (experiment.Figure, experiment.Cell, error) {
	if err := checkModes(set); err != nil || set["validate"] || set["detect"] {
		return experiment.Figure{}, experiment.Cell{}, err
	}
	return parseCell(cellKey)
}

// checkModes rejects two modes at once and a flag the chosen mode does
// not read.
func checkModes(set map[string]bool) error {
	mode := ""
	for _, m := range []string{"validate", "detect"} {
		if !set[m] {
			continue
		}
		if mode != "" {
			return fmt.Errorf("-%s and -%s are separate modes", mode, m)
		}
		mode = m
	}
	if mode != "" {
		for _, name := range runOnly {
			if set[name] {
				return fmt.Errorf("-%s is not used with -%s", name, mode)
			}
		}
	}
	switch {
	case set["quiet"] && mode == "validate":
		return fmt.Errorf("-quiet is not used with -%s", mode)
	case set["attacker"] && mode != "detect":
		return fmt.Errorf("-attacker is not used without -detect")
	}
	return nil
}

// parseCell resolves a <figure>/<arm>/<seed> key to its registry figure
// and cell.
func parseCell(key string) (experiment.Figure, experiment.Cell, error) {
	parts := strings.Split(key, "/")
	if len(parts) != 3 {
		return experiment.Figure{}, experiment.Cell{}, fmt.Errorf("-cell %q: want <figure>/<arm>/<seed>", key)
	}
	fig, ok := experiment.Figures()[parts[0]]
	if !ok {
		return experiment.Figure{}, experiment.Cell{}, fmt.Errorf("-cell %q: unknown figure %q (geosim -list names them)", key, parts[0])
	}
	if _, ok := fig.Arm(parts[1]); !ok {
		labels := make([]string, len(fig.Arms))
		for i, a := range fig.Arms {
			labels[i] = a.Label
		}
		return experiment.Figure{}, experiment.Cell{}, fmt.Errorf("-cell %q: %s has no arm %q; its arms are %s", key, fig.ID, parts[1], strings.Join(labels, ", "))
	}
	seed, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return experiment.Figure{}, experiment.Cell{}, fmt.Errorf("-cell %q: seed %q is not a number", key, parts[2])
	}
	return fig, experiment.Cell{Figure: fig.ID, Arm: parts[1], Seed: seed}, nil
}

// runValidate strict-decodes a JSONL trace and re-runs the conservation
// analysis. Exit 0 only when the file parses record for record and every
// packet chain balances.
func runValidate(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geotrace: %v\n", err)
		return 1
	}
	defer f.Close()
	recs, err := trace.ReadJSONL(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geotrace: %s: %v\n", path, err)
		return 1
	}
	an := trace.Analyze(recs)
	if v := an.Violations(); len(v) > 0 {
		fmt.Fprintf(os.Stderr, "geotrace: %s: %d conservation violations:\n", path, len(v))
		for _, s := range v {
			fmt.Fprintf(os.Stderr, "  %s\n", s)
		}
		return 1
	}
	fmt.Printf("%s: %d records, %d chains, %d delivered — conservation OK\n",
		path, an.Records, len(an.Chains), an.Delivered())
	return 0
}

// runDetect replays a JSONL trace through the misbehavior detector — the
// sink the online run feeds, here fed the trace's RX and drop records
// (see internal/detect.Replay). Each verdict prints with its
// evidence unless -quiet, then the aggregate summary. Exit 0 whenever
// the trace parses: detection outcomes are reported, not judged — an
// attack-free trace simply prints zero verdicts.
func runDetect(path string, attacker uint64, quiet bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geotrace: %v\n", err)
		return 1
	}
	defer f.Close()
	recs, err := trace.ReadJSONL(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geotrace: %s: %v\n", path, err)
		return 1
	}
	var cfg detect.Config
	if attacker != 0 {
		cfg.Truth = func(suspect uint64) bool { return suspect == attacker }
	}
	if !quiet {
		cfg.Sink = func(v detect.Verdict) {
			label := "false"
			if v.True {
				label = "TRUE"
			}
			fmt.Printf("%-12s %-5s node=%-6d suspect=%-10d %-22s %s\n",
				v.At.Round(time.Microsecond), label, v.Node, v.Suspect, v.CheckStr, v.Evidence)
		}
	}
	s := detect.Replay(recs, cfg).Summary()
	fmt.Printf("%s: %d records, %d verdicts", path, len(recs), s.Verdicts)
	if s.Detected {
		fmt.Printf(" — attacker detected at t=%.3fs", s.LatencySeconds)
	}
	fmt.Println()
	names := make([]string, 0, len(s.Checks))
	for name := range s.Checks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := s.Checks[name]
		fmt.Printf("  %-22s tp=%-6d fp=%d\n", name, cs.TruePositives, cs.FalsePositives)
	}
	return 0
}

// runTrace runs one figure cell under a tracer that counts every record,
// keeps the ones the analysis reads (not the beacons, nearly all of a
// run's records) and, as asked, prints them and writes them as JSONL.
// Exit 1 on a conservation or RHL violation.
func runTrace(fig experiment.Figure, cell experiment.Cell, beacons bool, jsonlPath string, quiet bool) int {
	mem := &trace.MemorySink{}
	records := 0
	sinks := []trace.Sink{trace.FuncSink(func(r trace.Record) {
		records++
		if trace.Analyzed(r) {
			mem.Record(r)
		}
	})}
	if !quiet {
		sinks = append(sinks, printSink(beacons))
	}
	var ft *trace.FileTracer
	if jsonlPath != "" {
		var err error
		ft, err = trace.NewFileTracer(jsonlPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geotrace: %v\n", err)
			return 1
		}
		sinks = append(sinks, ft.Tracer())
	}

	res, err := fig.RunCell(cell, experiment.Observe{Tracer: trace.New(sinks...)})
	if err != nil {
		fmt.Fprintf(os.Stderr, "geotrace: %v\n", err)
		return 1
	}
	if ft != nil {
		if err := ft.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "geotrace: %v\n", err)
			return 1
		}
	}

	an := trace.Analyze(mem.Records)
	an.Records = records
	fmt.Println()
	fmt.Print(an.Summary())
	fmt.Printf("\nprotocol stats: %+v\n", res.Protocol)
	if len(an.Violations()) > 0 {
		return 1
	}
	return 0
}

// printSink renders one aligned line per record.
func printSink(beacons bool) trace.FuncSink {
	return func(r trace.Record) {
		if r.PType == trace.PTBeacon && !beacons {
			return
		}
		detail := ""
		if r.Kind != trace.KindNone {
			detail += " kind=" + r.Kind.String()
		}
		if r.Reason != trace.ReasonNone {
			detail += " reason=" + r.Reason.String()
		}
		if r.Peer != 0 {
			detail += fmt.Sprintf(" peer=%d", r.Peer)
		}
		fmt.Printf("%-12s %-12s node=%-6d %s %d/%d rhl=%d%s\n",
			r.At.Round(time.Microsecond), r.Event, r.Node, r.PType, r.Src, r.SN, r.RHL, detail)
	}
}
