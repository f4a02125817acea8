package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"
)

// repTimeout bounds one repetition's child process; a repetition normally
// takes a few seconds.
const repTimeout = 45 * time.Second

// options configure one benchmark run.
type options struct {
	workloads []string
	seed      uint64
	specs     map[string]Spec
	// Rounds continue until at least reps have run and seconds have
	// passed. A round runs one repetition of every workload, and with
	// trace one traced repetition of each as well.
	reps    int
	seconds float64
	trace   bool
	out     string
	// golden holds the expected digests per workload and output key.
	golden map[string]map[string]string
}

// rep is one repetition as the parent saw it.
type rep struct {
	Workload string `json:"workload"`
	Index    int    `json:"index"`
	Traced   bool   `json:"traced,omitempty"`
	// A reference repetition runs the observed workload's units without
	// observers, to give the digests the observed runs must reproduce.
	Reference bool    `json:"reference,omitempty"`
	Start     int64   `json:"start_ns"`
	End       int64   `json:"end_ns"`
	SetupS    float64 `json:"setup_s"`
	// CalibS is the mean time of the calibrations right before and
	// after the repetition; timed metrics are scaled by hostFactor.
	CalibS    float64   `json:"calib_s"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Err       string    `json:"err,omitempty"`
	Result    repResult `json:"result"`
	// Profiles of a traced repetition.
	CPUProfile   string `json:"cpu_profile,omitempty"`
	AllocProfile string `json:"alloc_profile,omitempty"`
}

// report is everything one benchmark run measured; it is written to
// results.json and read back by -compare.
type report struct {
	Seed  uint64          `json:"seed"`
	Specs map[string]Spec `json:"specs"`
	Reps  []*rep          `json:"reps"`
}

// runBench runs the rounds of repetitions, each in a fresh child process
// so no repetition inherits another's heap, GC pacing or warm caches.
func runBench(ctx context.Context, o options) (*report, error) {
	rp := &report{Seed: o.seed, Specs: o.specs}
	expect := map[string]map[string]string{}
	for _, w := range o.workloads {
		expect[w] = maps.Clone(o.golden[w])
		if expect[w] == nil {
			expect[w] = map[string]string{}
		}
	}
	if err := os.MkdirAll(filepath.Join(o.out, "prof"), 0o755); err != nil {
		return nil, err
	}
	// Every repetition runs between two calibrations and is scaled by
	// their mean.
	calib := calibrate()
	run := func(spec Spec, index int, traced bool) *rep {
		r := runRep(ctx, o.out, spec, index, traced)
		next := calibrate()
		r.CalibS = (calib + next).Seconds() / 2
		calib = next
		return r
	}
	for _, w := range o.workloads {
		spec := rp.Specs[w]
		if !spec.Observe || spec.Kind != kindRuns {
			continue
		}
		if _, ok := expect[w][runKey(spec.Figure, spec.Arms[0], spec.Seeds[0])]; ok {
			continue
		}
		ref := spec
		ref.Observe = false
		r := run(ref, -1, false)
		r.Reference = true
		judge(r, spec.unitCount(), expect[w])
		rp.Reps = append(rp.Reps, r)
	}
	start := time.Now()
	for round := 0; round < o.reps || time.Since(start).Seconds() < o.seconds; round++ {
		for _, w := range o.workloads {
			for _, traced := range []bool{false, true} {
				if traced && !o.trace {
					continue
				}
				spec := rp.Specs[w]
				r := run(spec, round, traced)
				judge(r, spec.unitCount(), expect[w])
				rp.Reps = append(rp.Reps, r)
			}
		}
	}
	return rp, nil
}

// runRep runs one repetition in a child process. Whatever goes wrong is
// recorded in the rep, never returned: a crashed or timed-out child
// counts against its units and the benchmark goes on.
func runRep(ctx context.Context, out string, spec Spec, index int, traced bool) *rep {
	r := &rep{Workload: spec.Workload, Index: index, Traced: traced}
	req := request{Spec: spec, WorkDir: out}
	if traced {
		base := filepath.Join(out, "prof", fmt.Sprintf("%s-%d", spec.Workload, index))
		req.CPUProfile, req.AllocProfile = base+".cpu.pprof", base+".allocs.pprof"
		r.CPUProfile, r.AllocProfile = req.CPUProfile, req.AllocProfile
	}
	ctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	start := time.Now()
	res, setup, err := spawn(ctx, req)
	r.Start, r.End = start.UnixNano(), time.Now().UnixNano()
	r.SetupS = setup.Seconds()
	r.Result = res
	if err != nil {
		r.Err = err.Error()
		fmt.Fprintf(os.Stderr, "bench: %s repetition %d failed: %v\n", spec.Workload, index, err)
	}
	return r
}

// spawn starts this executable as a child, sends it the request, and
// reads back "ready", which ends set-up, and the result.
func spawn(ctx context.Context, req request) (res repResult, setup time.Duration, err error) {
	exe, err := os.Executable()
	if err != nil {
		return res, 0, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return res, 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(body)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return res, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return res, 0, err
	}
	rd := bufio.NewReader(stdout)
	readErr := func() error {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("child exited before set-up ended: %w", err)
		}
		if string(line) != "ready\n" {
			return fmt.Errorf("child sent %q instead of ready", line)
		}
		setup = time.Since(start)
		if line, err = rd.ReadBytes('\n'); err != nil {
			return fmt.Errorf("child exited before reporting: %w", err)
		}
		return json.Unmarshal(line, &res)
	}()
	// Drain whatever is left so the child never blocks on a full pipe.
	io.Copy(io.Discard, rd)
	waitErr := cmd.Wait()
	switch {
	case ctx.Err() != nil:
		err = fmt.Errorf("child killed after %s: %w", time.Since(start).Round(time.Millisecond), ctx.Err())
	case waitErr != nil:
		err = fmt.Errorf("child: %w", waitErr)
	default:
		err = readErr
	}
	return res, setup, err
}

// judge counts a repetition's failed units. A unit fails when its own
// check failed or its digest differs from the expected one; a repetition
// whose whole-output digest differs, or whose child failed, fails every
// unit. A digest with no expected value becomes the expected value, so
// later repetitions of the same inputs must reproduce it.
func judge(r *rep, units int, expect map[string]string) {
	r.Attempted = units
	if r.Err != "" {
		r.Failed = units
		return
	}
	failed := units - len(r.Result.Units)
	for _, u := range r.Result.Units {
		if u.Err != "" {
			fmt.Fprintf(os.Stderr, "bench: %s %s: %s\n", r.Workload, u.Key, u.Err)
			failed++
		} else if !matches(expect, r.Workload, u.Key, u.Digest) {
			failed++
		}
	}
	for _, c := range r.Result.Checks {
		if !matches(expect, r.Workload, c.Key, c.Digest) {
			failed = units
		}
	}
	r.Failed = min(max(failed, 0), units)
}

func matches(expect map[string]string, workload, key, digest string) bool {
	if digest == "" {
		return true
	}
	want, ok := expect[key]
	if !ok {
		expect[key] = digest
		return true
	}
	if want != digest {
		fmt.Fprintf(os.Stderr, "bench: %s %s: digest %.12s, expected %.12s\n", workload, key, digest, want)
		return false
	}
	return true
}

// metric is one reported metric with its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees.
var endToEnd = []metric{
	{"wall_s", "s"}, {"unit_ms_p50", "ms"}, {"unit_ms_tail", "ms"}, {"setup_s", "s"},
	{"peak_rss_mb", "MB"}, {"alloc_mb", "MB"}, {"allocs_k", "k"},
}

// perLayer are the metrics of single layers, measured on traced
// repetitions: the CPU and allocation ledger, counts from the public
// result structs, runtime waits, and the tracing overhead.
var perLayer = func() []metric {
	var ms []metric
	for _, suffix := range []string{"cpu_share", "alloc_share"} {
		for _, l := range layers {
			ms = append(ms, metric{l + "." + suffix, "fraction"})
		}
		for _, p := range geonetParts {
			ms = append(ms, metric{"geonet." + p + "." + suffix, "fraction"})
		}
	}
	return append(ms, countMetrics...)
}()

// countMetrics are the per-layer metrics read from result structs and
// runtime/metrics, plus trace_overhead.
var countMetrics = []metric{
	{"sim.events", "count"}, {"sim.pending_p50", "count"}, {"sim.pending_max", "count"},
	{"radio.tx", "count"}, {"radio.rx", "count"}, {"radio.rx_per_tx", "ratio"}, {"radio.pool_miss_ratio", "ratio"},
	{"geonet.beacons_rx", "count"}, {"geonet.data_tx", "count"}, {"geonet.delivered", "count"},
	{"geonet.tx_per_delivery", "ratio"}, {"geonet.cbf_armed", "count"}, {"geonet.cbf_cancel_ratio", "ratio"},
	{"geonet.drops", "count"}, {"attack.replays", "count"}, {"experiment.packets", "count"},
	{"trace.records", "count"}, {"trace.bytes", "B"}, {"detect.verdicts", "count"},
	{"campaign.cells", "count"}, {"campaign.journal_kb", "kB"},
	{"gc.cycles", "count"}, {"gc.cpu_s", "s"}, {"gc.assist_cpu_s", "s"}, {"gc.pause_p99_ms", "ms"},
	{"sched.latency_p99_ms", "ms"}, {"heap.live_peak_mb", "MB"},
	{"trace_overhead", "ratio"},
}

// measured returns the successful repetitions of a workload that count
// towards its metrics.
func (rp *report) measured(workload string, traced bool) []*rep {
	var out []*rep
	for _, r := range rp.Reps {
		if r.Workload == workload && r.Traced == traced && !r.Reference && r.Err == "" {
			out = append(out, r)
		}
	}
	return out
}

// repValue is one repetition's value of an end-to-end metric; -compare
// pairs these.
func repValue(name string, r *rep, tailQ float64) float64 {
	switch name {
	case "wall_s":
		return float64(r.Result.WorkNS) / 1e9 * r.hostFactor()
	case "unit_ms_p50":
		return quantile(unitMS(r), 0.5)
	case "unit_ms_tail":
		return quantile(unitMS(r), tailQ)
	case "setup_s":
		return r.SetupS * r.hostFactor()
	case "peak_rss_mb":
		return float64(r.Result.PeakRSS) / 1e6
	case "alloc_mb":
		return float64(r.Result.AllocBytes) / 1e6
	case "allocs_k":
		return float64(r.Result.Mallocs) / 1e3
	}
	panic("unknown metric " + name)
}

// unitMS returns the unit times of the reps at the reference host speed.
func unitMS(reps ...*rep) []float64 {
	var ms []float64
	for _, r := range reps {
		for _, u := range r.Result.Units {
			ms = append(ms, u.ms()*r.hostFactor())
		}
	}
	return ms
}

// endToEndValues are a workload's end-to-end metrics: medians over its
// untraced repetitions, with the unit percentiles taken over the units
// of all of them.
func (rp *report) endToEndValues(workload string) map[string]float64 {
	reps := rp.measured(workload, false)
	tailQ := rp.Specs[workload].tailQuantile()
	vals := map[string]float64{}
	for _, m := range endToEnd {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, repValue(m.name, r, tailQ))
		}
		vals[m.name] = quantile(xs, 0.5)
	}
	units := unitMS(reps...)
	vals["unit_ms_p50"] = quantile(units, 0.5)
	vals["unit_ms_tail"] = quantile(units, tailQ)
	return vals
}

// perLayerValues are a workload's per-layer metrics from its traced
// repetitions: the ledger over all their profiles, and medians of the
// counts and runtime waits.
func (rp *report) perLayerValues(workload string) (map[string]float64, error) {
	reps := rp.measured(workload, true)
	vals := map[string]float64{}
	cpu, alloc := newLedger(), newLedger()
	for _, r := range reps {
		for _, src := range []struct {
			l          *ledger
			file, kind string
		}{{cpu, r.CPUProfile, "cpu"}, {alloc, r.AllocProfile, "alloc_space"}} {
			p, err := readProfile(src.file)
			if err != nil {
				return nil, err
			}
			if err := src.l.add(p, src.kind); err != nil {
				return nil, fmt.Errorf("%s: %w", src.file, err)
			}
		}
	}
	cpu.shares("cpu_share", vals)
	alloc.shares("alloc_share", vals)
	for _, m := range countMetrics {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, r.Result.Layer[m.name])
		}
		vals[m.name] = quantile(xs, 0.5)
	}
	var traced, untraced []float64
	for _, r := range reps {
		traced = append(traced, repValue("wall_s", r, 0))
	}
	for _, r := range rp.measured(workload, false) {
		untraced = append(untraced, repValue("wall_s", r, 0))
	}
	if u := quantile(untraced, 0.5); u > 0 {
		vals["trace_overhead"] = quantile(traced, 0.5) / u
	}
	return vals, nil
}

// totals sums attempted and failed units over a workload's repetitions,
// or over all of them when workload is empty.
func (rp *report) totals(workload string) (attempted, failed int) {
	for _, r := range rp.Reps {
		if workload == "" || r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return attempted, failed
}

// write prints every metric of every workload as
// "<workload> <metric> <value> <unit>" and returns the values by workload.
func (rp *report) write(w io.Writer, workloads []string, traced bool) (map[string]map[string]float64, error) {
	all := map[string]map[string]float64{}
	for _, wl := range workloads {
		vals := rp.endToEndValues(wl)
		ms := endToEnd
		if traced {
			lv, err := rp.perLayerValues(wl)
			if err != nil {
				return nil, err
			}
			maps.Copy(vals, lv)
			ms = append(slices.Clip(ms), perLayer...)
		}
		for _, m := range ms {
			fmt.Fprintf(w, "%s %s %v %s\n", wl, m.name, vals[m.name], m.unit)
		}
		attempted, failed := rp.totals(wl)
		fmt.Fprintf(os.Stderr, "# %s: unit_ms_tail is p%.0f of %d units; %d of %d units failed\n",
			wl, 100*rp.Specs[wl].tailQuantile(), len(unitMS(rp.measured(wl, false)...)), failed, attempted)
		all[wl] = vals
	}
	return all, nil
}

// writeFiles saves the report as results.json and its spans, numbered
// across processes, as spans.jsonl.
func (rp *report) writeFiles(out string) error {
	b, err := json.Marshal(rp)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "results.json"), b, 0o644); err != nil {
		return err
	}
	var spans []span
	byWorkload := map[string]int{}
	for _, r := range rp.Reps {
		wid, ok := byWorkload[r.Workload]
		if !ok {
			wid = len(spans) + 1
			byWorkload[r.Workload] = wid
			spans = append(spans, span{ID: wid, Workload: r.Workload, Name: "workload", Start: r.Start})
		}
		spans[wid-1].End = r.End
		name := "repetition"
		switch {
		case r.Reference:
			name = "reference"
		case r.Traced:
			name = "repetition.traced"
		}
		rid := len(spans) + 1
		spans = append(spans, span{ID: rid, Parent: wid, Workload: r.Workload, Name: name, Start: r.Start, End: r.End})
		// Child span ids count from 1 with 0 for the repetition, so they
		// shift by the repetition's id.
		for _, s := range r.Result.Spans {
			s.ID += rid
			s.Parent += rid
			spans = append(spans, s)
		}
		unitParent := rid + r.Result.UnitParent
		for _, u := range r.Result.Units {
			spans = append(spans, span{ID: len(spans) + 1, Parent: unitParent, Workload: r.Workload, Name: u.Key, Start: u.Start, End: u.End})
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(out, "spans.jsonl"), buf.Bytes(), 0o644)
}

// quantile interpolates linearly between the closest ranks; it returns 0
// for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// loadReport reads a results.json written by a benchmark run.
func loadReport(name string) (*report, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var rp report
	if err := json.Unmarshal(b, &rp); err != nil {
		return nil, fmt.Errorf("reading %s: %w", name, err)
	}
	if len(rp.Reps) == 0 {
		return nil, errors.New(name + " holds no repetitions")
	}
	return &rp, nil
}
