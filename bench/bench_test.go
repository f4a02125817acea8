package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The harness starts its own executable to run each repetition; under
	// go test that executable is the test binary.
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// tinySpecs holds one small spec per workload, so that a traced round of
// all four takes a few seconds.
func tinySpecs() map[string]Spec {
	return map[string]Spec{
		"fig7a_campaign": {Workload: "fig7a_campaign", Kind: kindCampaign, Figure: "tournament-localmin", CampaignRuns: 2},
		"cbf_storm": {Workload: "cbf_storm", Kind: kindRuns, Figure: "fig9a", Arms: []string{"af_mN", "atk_mN"},
			Seeds: []uint64{1}, Duration: 3 * time.Second, PacketInterval: 100 * time.Millisecond},
		"observed": {Workload: "observed", Kind: kindRuns, Figure: "fig7a", Arms: []string{"af_wN", "atk_wN"},
			Seeds: []uint64{1}, Duration: 3 * time.Second, Observe: true},
		"world_scale": {Workload: "world_scale", Kind: kindWorld, Segments: 2, PerLane: 500, WorldSeed: 1,
			Slices: 10, Slice: 100 * time.Millisecond},
	}
}

func tinyOptions(t *testing.T, workloads ...string) options {
	return options{workloads: workloads, specs: tinySpecs(), reps: 1, trace: true, out: t.TempDir()}
}

// runTiny runs the harness and returns its exit code and printed lines.
func runTiny(t *testing.T, o options) (int, []string) {
	t.Helper()
	var out bytes.Buffer
	code := runAndReport(context.Background(), o, len(o.workloads) == 1, &out)
	var lines []string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return code, lines
}

// TestEveryDeclaredMetricPrintedOnce runs a traced round of every workload
// and checks its printed metrics against BENCHMARK.json, and that each
// ledger's shares sum to 1.
func TestEveryDeclaredMetricPrintedOnce(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions(t, workloadNames...)
	code, lines := runTiny(t, o)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, strings.Join(lines, "\n"))
	}
	type seen struct {
		n     int
		unit  string
		value float64
	}
	printed := map[string]*seen{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) != 4 {
			t.Errorf("line %q is not <workload> <metric> <value> <unit>", l)
			continue
		}
		s := printed[f[0]+" "+f[1]]
		if s == nil {
			s = &seen{}
			printed[f[0]+" "+f[1]] = s
		}
		s.n++
		s.unit = f[3]
		if s.value, err = strconv.ParseFloat(f[2], 64); err != nil {
			t.Errorf("line %q: %v", l, err)
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames)
	}
	declared := append(append([]declared{}, bf.EndToEnd...), bf.PerLayer...)
	if len(printed) != len(workloadNames)*len(declared) {
		t.Errorf("printed %d (workload, metric) pairs, BENCHMARK.json declares %d per workload", len(printed), len(declared))
	}
	for _, w := range workloadNames {
		for _, m := range declared {
			s := printed[w+" "+m.Name]
			switch {
			case s == nil || s.n != 1:
				t.Errorf("%s %s not printed exactly once", w, m.Name)
			case s.unit != m.Unit:
				t.Errorf("%s %s printed with unit %q, declared %q", w, m.Name, s.unit, m.Unit)
			}
		}
		for _, suffix := range []string{"cpu_share", "alloc_share"} {
			sum, parts := 0.0, 0.0
			for _, l := range layers {
				if s := printed[w+" "+l+"."+suffix]; s != nil {
					sum += s.value
				}
			}
			for _, p := range geonetParts {
				if s := printed[w+" geonet."+p+"."+suffix]; s != nil {
					parts += s.value
				}
			}
			// A tiny run can end before the CPU profiler's first sample;
			// then every share is 0.
			if math.Abs(sum-1) > 0.01 && !(suffix == "cpu_share" && sum == 0) {
				t.Errorf("%s %s sums to %v", w, suffix, sum)
			}
			if g := printed[w+" geonet."+suffix]; g != nil && math.Abs(parts-g.value) > 1e-9 {
				t.Errorf("%s geonet parts' %s sum to %v, geonet has %v", w, suffix, parts, g.value)
			}
		}
	}
}

func TestFoldChargesCallerLayer(t *testing.T) {
	p := &profile{
		sampleTypes: []string{"samples", "cpu"},
		locations: map[uint64][]uint64{
			1: {1},    // runtime.mallocgc
			2: {2, 3}, // LocT.Update inlined into sim.Engine.Run
			3: {4},    // hmac.Write
			4: {5},    // security verify
			5: {6},    // GC worker
		},
		functions: map[uint64]profileFunc{
			1: {name: "runtime.mallocgc", file: "runtime/malloc.go"},
			2: {name: internalPrefix + "geonet.(*LocT).Update", file: "internal/geonet/loct.go"},
			3: {name: internalPrefix + "sim.(*Engine).Run", file: "internal/sim/engine.go"},
			4: {name: "crypto/hmac.(*hmac).Write", file: "crypto/hmac/hmac.go"},
			5: {name: internalPrefix + "security.(*SimCA).Verify", file: "internal/security/security.go"},
			6: {name: "runtime.gcBgMarkWorker", file: "runtime/mgc.go"},
		},
		samples: []profileSample{
			{locations: []uint64{1, 2}, values: []int64{1, 10}},
			{locations: []uint64{3, 4}, values: []int64{1, 20}},
			{locations: []uint64{5}, values: []int64{1, 30}},
		},
	}
	l := newLedger()
	if err := l.add(p, "cpu"); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"geonet": 10, "security": 20, "gc": 30}
	for layer, v := range want {
		if l.layer[layer] != v {
			t.Errorf("%s charged %d, want %d", layer, l.layer[layer], v)
		}
	}
	if l.geonet["loct"] != 10 || l.total != 60 {
		t.Errorf("geonet.loct %d, total %d; want 10 and 60", l.geonet["loct"], l.total)
	}
	if err := l.add(p, "alloc_space"); err == nil {
		t.Error("folding a sample type the profile lacks succeeded")
	}
}

func TestCorruptGoldenFails(t *testing.T) {
	o := tinyOptions(t, "cbf_storm")
	o.trace = false
	o.golden = map[string]map[string]string{"cbf_storm": {runKey("fig9a", "af_mN", 1): strings.Repeat("0", 64)}}
	code, lines := runTiny(t, o)
	if code == 0 {
		t.Error("exit code 0 with a corrupted golden digest")
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Attempted != 2 {
		t.Errorf("result %+v, want 1 or more of 2 units failed", res)
	}
}

func TestKilledChildCountsAsFailed(t *testing.T) {
	spec, err := specFor("world_scale", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Building the 50,000-vehicle world alone takes far longer than this.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	r := runRep(ctx, t.TempDir(), spec, 0, false)
	judge(r, spec.unitCount(), map[string]string{})
	if r.Err == "" || r.Failed != spec.Slices || r.Attempted != spec.Slices {
		t.Errorf("killed child: err %q, %d of %d units failed; want all %d", r.Err, r.Failed, r.Attempted, spec.Slices)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2}
	for _, tc := range []struct {
		nw   []float64
		want string
	}{
		{[]float64{10, 10.1, 9.9, 10, 10.2}, "unchanged"},
		{[]float64{12, 12.1, 11.9, 12, 12.2}, "worse"},
		{[]float64{8, 8.1, 7.9, 8, 8.2}, "better"},
		{[]float64{5, 15, 10, 20, 8}, "unresolved"},
	} {
		if got := compareMetric(base, tc.nw, 0.1, true).verdict; got != tc.want {
			t.Errorf("new %v: verdict %s, want %s", tc.nw, got, tc.want)
		}
	}
}
