// Command geotrace inspects packet lifecycles. It has three modes:
//
// Run mode executes a single seeded simulation with the lifecycle tracer
// (internal/trace) threaded through the radio medium, every router stack,
// and the attacker, then prints each event, the reconstructed per-packet
// hop chains, and the conservation check — every traced packet copy must
// balance as delivered + dropped + buffered + armed:
//
//	geotrace -duration 30s -packets 3
//	geotrace -attack inter-area -range 486 -duration 60s
//	geotrace -workload intra-area -attack intra-area -jsonl run.jsonl
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
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/trace"
	"github.com/vanetsec/georoute/internal/traffic"
	"github.com/vanetsec/georoute/internal/vanet"
)

func main() {
	var (
		duration = flag.Duration("duration", 30*time.Second, "simulated duration")
		packets  = flag.Int("packets", 3, "data packets to inject")
		workload = flag.String("workload", "inter-area", "inter-area (GUC) or intra-area (GBC)")
		atkMode  = flag.String("attack", "none", "none, inter-area, or intra-area")
		atkRange = flag.Float64("range", 486, "attack range in meters")
		seed     = flag.Uint64("seed", 1, "simulation seed")
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
	if err := checkFlags(*duration, *packets, *workload, *atkMode, set); err != nil {
		fmt.Fprintf(os.Stderr, "geotrace: %v\n", err)
		os.Exit(2)
	}
	if *validate != "" {
		os.Exit(runValidate(*validate))
	}
	if *detPath != "" {
		os.Exit(runDetect(*detPath, *attacker, *quiet))
	}
	os.Exit(runTrace(*duration, *packets, *workload, *atkMode, *atkRange, *seed, *beacons, *jsonl, *quiet))
}

// runOnly are the flags only run mode reads.
var runOnly = []string{"duration", "packets", "workload", "attack", "range", "seed", "beacons", "jsonl"}

// checkFlags rejects flags the chosen mode does not read (set holds the
// flags given on the command line) and out-of-range run-mode flag values
// before any work starts; main exits 2 on its error.
func checkFlags(duration time.Duration, packets int, workload, atkMode string, set map[string]bool) error {
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
	case duration <= 0:
		return fmt.Errorf("-duration %v: want a positive duration", duration)
	case packets < 0:
		return fmt.Errorf("-packets %d: want 0 or more", packets)
	case workload != "inter-area" && workload != "intra-area":
		return fmt.Errorf("-workload %q: want inter-area or intra-area", workload)
	case atkMode != "none" && atkMode != "inter-area" && atkMode != "intra-area":
		return fmt.Errorf("-attack %q: want none, inter-area or intra-area", atkMode)
	}
	return nil
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

func runTrace(duration time.Duration, packets int, workload, atkMode string, atkRange float64, seed uint64, beacons bool, jsonlPath string, quiet bool) int {
	mem := &trace.MemorySink{}
	sinks := []trace.Sink{mem}
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
	tr := trace.New(sinks...)

	var w *vanet.World
	w = vanet.New(vanet.Config{
		Seed:        seed,
		Road:        traffic.RoadConfig{Length: 4000, LanesPerDirection: 2},
		SpawnGap:    30,
		Prepopulate: true,
		Tracer:      tr,
		OnDeliver: func(addr geonet.Address, p *geonet.Packet) {
			if quiet {
				return
			}
			fmt.Printf("%-12s UPPER      node %d got %v/%d\n",
				w.Engine.Now().Round(time.Microsecond), addr, p.SourcePV.Addr, p.SN)
		},
	})
	w.AddStatic(vanet.WestDestAddr, geo.Pt(-20, 0), 0)
	w.AddStatic(vanet.EastDestAddr, geo.Pt(4020, 0), 0)

	if atkMode != "none" {
		mode := attack.InterArea
		if atkMode == "intra-area" {
			mode = attack.IntraArea
		}
		attack.NewAttacker(attack.Config{
			Engine:   w.Engine,
			Medium:   w.Medium,
			Position: geo.Pt(2000, -2.5),
			Range:    atkRange,
			Mode:     mode,
			Tracer:   tr,
		})
	}

	// Let beacons settle, then inject packets from mid-road vehicles.
	w.Engine.ScheduleAt(10*time.Second, "inject", func() {
		vs := w.AppendVehicles(nil)
		for i := 0; i < packets && i < len(vs); i++ {
			src := vs[len(vs)/2+i]
			r := w.RouterOf(src)
			switch workload {
			case "intra-area":
				area := geo.NewRect(geo.Pt(2000, 0), 2000, 30, 90)
				r.SendGeoBroadcast(area, nil)
			default:
				r.SendGeoUnicast(vanet.EastDestAddr, geo.Pt(4020, 0), nil)
			}
		}
	})

	w.Run(duration)

	if ft != nil {
		if err := ft.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "geotrace: %v\n", err)
			return 1
		}
	}

	an := trace.Analyze(mem.Records)
	fmt.Println()
	fmt.Print(an.Summary())
	fmt.Printf("\nmedium stats: %+v\n", w.Medium.Stats())
	fmt.Printf("protocol stats: %+v\n", w.ProtocolStats())
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
