// Command bench is the simulator's one-command benchmark. It runs four
// workloads (a Fig. 7a campaign, a CBF contention storm, observed Fig. 7a
// runs and a 50,000-vehicle world), each repetition in a fresh child
// process, checks every output against golden digests, and prints every
// metric as "<workload> <metric> <value> <unit>". Build and run it from
// the root of the repository with
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-reps R] [-trace 0|1] [-out DIR]
//	bash bench/run.sh -golden [-seed N]
//	bash bench/run.sh -compare base.json new.json
//
// See bench/README.md for the workloads, metrics and output files.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// goldenJSON holds the output digests of the default seed, as printed by
// -golden.
//
//go:embed golden.json
var goldenJSON []byte

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload and end with the JSON result line (default: all, interleaved)")
	seed := fs.Uint64("seed", 0, "input seed; it shifts every run seed and the world seed")
	seconds := fs.Float64("seconds", 0, "keep starting rounds of repetitions until this many seconds have passed")
	reps := fs.Int("reps", 3, "run at least this many rounds of repetitions")
	traceFlag := fs.Int("trace", 1, "1: add a traced repetition to every round and report per-layer metrics; 0: end-to-end metrics only")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for results.json, spans.jsonl and profiles")
	goldenMode := fs.Bool("golden", false, "print the output digests of one repetition of each workload as JSON")
	compareMode := fs.Bool("compare", false, "compare two results.json files: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two results.json files")
			return 2
		}
		bf, err := loadBenchmarkFile("BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		code, err := compare(fs.Arg(0), fs.Arg(1), bf, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		return code
	}
	workloads := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []string{*workload}
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintln(os.Stderr, "bench: reading golden.json:", err)
		return 2
	}
	if *goldenMode {
		return printGolden(workloads, *seed, *out, stdout)
	}
	o := options{workloads: workloads, seed: *seed, specs: map[string]Spec{}, reps: *reps, seconds: *seconds,
		trace: *traceFlag == 1, out: *out, golden: golden}
	for _, w := range workloads {
		spec, err := specFor(w, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		o.specs[w] = spec
	}
	return runAndReport(context.Background(), o, *workload != "", stdout)
}

// runAndReport runs the benchmark, prints its metrics and, for a single
// workload, the JSON result line. It exits non-zero when any unit failed.
func runAndReport(ctx context.Context, o options, jsonLine bool, stdout io.Writer) int {
	rp, err := runBench(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := rp.writeFiles(o.out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	vals, err := rp.write(stdout, o.workloads, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	attempted, failed := rp.totals("")
	if jsonLine {
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		ms := endToEnd
		if o.trace {
			ms = perLayer
		}
		res := struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{failed == 0, attempted, failed, map[string]value{}}
		for _, m := range ms {
			res.Metrics[m.name] = value{vals[o.workloads[0]][m.name], m.unit}
		}
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(b))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// printGolden runs one untraced repetition of each workload, the observed
// one without its observers, and prints every output digest as JSON.
func printGolden(workloads []string, seed uint64, out string, stdout io.Writer) int {
	golden := map[string]map[string]string{}
	code := 0
	for _, w := range workloads {
		spec, err := specFor(w, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		spec.Observe = false
		r := runRep(context.Background(), out, spec, 0, false)
		if r.Err != "" {
			code = 1
			continue
		}
		golden[w] = map[string]string{}
		for _, u := range r.Result.Units {
			if u.Digest != "" {
				golden[w][u.Key] = u.Digest
			}
		}
		for _, c := range r.Result.Checks {
			golden[w][c.Key] = c.Digest
		}
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	return code
}
