package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// childEnv marks a process started by the harness to run one repetition.
const childEnv = "GEOROUTE_BENCH_CHILD"

// childMain runs one repetition in this process: it reads the request
// from stdin, builds the inputs, writes "ready", runs the units and
// writes the result as one JSON line.
func childMain(stdin io.Reader, stdout io.Writer) int {
	var req request
	if err := json.NewDecoder(stdin).Decode(&req); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: reading request:", err)
		return 2
	}
	res, err := runRepetition(req, func() { fmt.Fprintln(stdout, "ready") })
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %s: %v\n", req.Spec.Workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: writing result:", err)
		return 1
	}
	return 0
}

func runRepetition(req request, ready func()) (repResult, error) {
	var prof *profiler
	if req.CPUProfile != "" {
		var err error
		if prof, err = startProfiler(req.CPUProfile); err != nil {
			return repResult{}, err
		}
	}
	r := &repetition{spec: req.Spec}
	work, verify, err := r.setup(req.WorkDir)
	if err != nil {
		return repResult{}, err
	}
	ready()
	start := time.Now()
	err = work()
	r.res.WorkNS = time.Since(start).Nanoseconds()
	if err != nil {
		return repResult{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.res.AllocBytes, r.res.Mallocs = ms.TotalAlloc, ms.Mallocs
	if r.res.PeakRSS, err = peakRSS(); err != nil {
		return repResult{}, err
	}
	waits := readRuntime()
	if prof != nil {
		peak, err := prof.finish(req.AllocProfile)
		if err != nil {
			return repResult{}, err
		}
		waits["heap.live_peak_mb"] = float64(peak) / 1e6
	}
	if err := verify(); err != nil {
		return repResult{}, err
	}
	r.res.Layer = r.tally.counts()
	maps.Copy(r.res.Layer, waits)
	return r.res, nil
}

// peakRSS reads the resident-set high-water mark of this process from
// /proc/self/status. Unlike the ru_maxrss the parent gets from wait4, it
// leaves out the parent's pages the child shared between fork and exec.
func peakRSS() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// readRuntime reads the runtime's cumulative GC and scheduler metrics.
func readRuntime() map[string]float64 {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return map[string]float64{
		"gc.cycles":            float64(s[0].Value.Uint64()),
		"gc.cpu_s":             s[1].Value.Float64(),
		"gc.assist_cpu_s":      s[2].Value.Float64(),
		"gc.pause_p99_ms":      1e3 * histQuantile(s[3].Value.Float64Histogram(), 0.99),
		"sched.latency_p99_ms": 1e3 * histQuantile(s[4].Value.Float64Histogram(), 0.99),
	}
}

// histQuantile returns the upper bound of the bucket holding quantile q.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if float64(seen) >= q*float64(total) {
			if hi := h.Buckets[i+1]; hi < 1e300 {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// profiler records a traced repetition: a CPU profile from process start,
// an allocation profile at the end, and the peak live heap.
type profiler struct {
	cpu  *os.File
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startProfiler(cpuPath string) (*profiler, error) {
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p := &profiler{cpu: f, stop: make(chan struct{}), done: make(chan struct{})}
	go p.sampleLiveHeap()
	return p, nil
}

// sampleLiveHeap polls the live heap, which the runtime updates at the
// end of every GC cycle, until stopped.
func (p *profiler) sampleLiveHeap() {
	defer close(p.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		p.peak = max(p.peak, s[0].Value.Uint64())
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the CPU profile, writes the allocation profile and returns
// the peak live heap in bytes.
func (p *profiler) finish(allocPath string) (uint64, error) {
	close(p.stop)
	<-p.done
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return 0, err
	}
	// The allocation profile is only as current as the last GC cycle.
	runtime.GC()
	f, err := os.Create(allocPath)
	if err != nil {
		return 0, err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return 0, err
	}
	return p.peak, f.Close()
}
