package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help")
	g := r.Gauge("y", "help")
	if c != nil || g != nil {
		t.Fatalf("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3.5)
	r.OnCollect(func() { t.Fatal("hook must not run") })
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil handles must read zero")
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", s)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, %v", buf.String(), err)
	}
}

func TestNilHandleAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
	})
	if n != 0 {
		t.Fatalf("nil-handle ops allocated %v/op, want 0", n)
	}
}

func TestLiveHandleAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "h")
	g := r.Gauge("y", "h")
	n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2.5)
	})
	if n != 0 {
		t.Fatalf("live handle ops allocated %v/op, want 0", n)
	}
}

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "h")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	g := r.Gauge("depth", "h")
	g.Set(-2.25)
	if got := g.Value(); got != -2.25 {
		t.Fatalf("gauge = %v, want -2.25", got)
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("n_total", "h", Label{"worker", "0"})
	b := r.Counter("n_total", "h", Label{"worker", "0"})
	a.Add(2)
	b.Add(3)
	if a.Value() != 5 || b.Value() != 5 {
		t.Fatalf("same identity must share a cell: %d vs %d", a.Value(), b.Value())
	}
	other := r.Counter("n_total", "h", Label{"worker", "1"})
	if other.Value() != 0 {
		t.Fatalf("different labels must be a distinct series")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "h")
}

func TestConcurrentPublishAndScrape(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "h", Label{"worker", "0"})
	c := r.Counter("events_total", "h")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.Set(float64(i))
			c.Inc()
		}
	}()
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("scrape %d invalid: %v\n%s", i, err, buf.String())
		}
	}
	close(stop)
	wg.Wait()
}

func TestPrometheusExpositionShape(t *testing.T) {
	r := NewRegistry()
	r.Gauge("georoute_engine_queue_depth", "Pending events.", Label{"worker", "1"}).Set(42)
	r.Gauge("georoute_engine_queue_depth", "Pending events.", Label{"worker", "0"}).Set(7)
	r.Counter("georoute_engine_events_total", "Events.").Add(123)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `# HELP georoute_engine_queue_depth Pending events.
# TYPE georoute_engine_queue_depth gauge
georoute_engine_queue_depth{worker="0"} 7
georoute_engine_queue_depth{worker="1"} 42
# HELP georoute_engine_events_total Events.
# TYPE georoute_engine_events_total counter
georoute_engine_events_total 123
`
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition fails validation: %v", err)
	}
}

func TestFormatValueSpecials(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1.5:          "1.5",
		0:            "0",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

func TestOnCollectRefreshesBeforeSnapshot(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("lazy", "h")
	calls := 0
	r.OnCollect(func() {
		calls++
		g.Set(float64(calls))
	})
	s := r.Snapshot()
	if calls != 1 || len(s) != 1 || s[0].Value != 1 {
		t.Fatalf("snapshot after first collect = %+v (calls=%d)", s, calls)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if calls != 2 || !strings.Contains(buf.String(), "lazy 2") {
		t.Fatalf("exposition after second collect: calls=%d out=%q", calls, buf.String())
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := map[string]string{
		"no type":        "orphan 1\n",
		"bad name":       "# TYPE 0bad gauge\n0bad 1\n",
		"bad type":       "# TYPE m fancy\nm 1\n",
		"bad value":      "# TYPE m gauge\nm elephant\n",
		"dup series":     "# TYPE m gauge\nm 1\nm 2\n",
		"dup type":       "# TYPE m gauge\n# TYPE m gauge\nm 1\n",
		"bad label":      "# TYPE m gauge\nm{0k=\"v\"} 1\n",
		"unquoted label": "# TYPE m gauge\nm{k=v} 1\n",
		"empty":          "",
	}
	for name, in := range bad {
		if err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
	good := "# HELP m metric with \\\\ escape\n# TYPE m gauge\nm{k=\"a\\\"b\",z=\"c\"} +Inf\nm 4e-07\n# random comment\n"
	if err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Errorf("good exposition rejected: %v", err)
	}
}

func TestJSONSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Gauge("depth", "h", Label{"worker", "3"}).Set(11)
	r.Counter("hits_total", "h").Add(4)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Sample
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d samples, want 2", len(got))
	}
	if got[0].Name != "depth" || got[0].Kind != "gauge" || got[0].Labels["worker"] != "3" || got[0].Value != 11 {
		t.Fatalf("sample 0 = %+v", got[0])
	}
	if got[1].Name != "hits_total" || got[1].Kind != "counter" || got[1].Value != 4 {
		t.Fatalf("sample 1 = %+v", got[1])
	}
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Gauge("depth", "h").Set(5)
	r.Counter("hits_total", "h").Add(2)
	RegisterRuntime(r)
	srv, err := ListenAndServe(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	metrics := get("/metrics")
	if err := ValidateExposition(bytes.NewReader(metrics)); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, metrics)
	}
	if !bytes.Contains(metrics, []byte("georoute_runtime_heap_bytes")) {
		t.Fatalf("/metrics missing runtime gauges:\n%s", metrics)
	}

	var snap []Sample
	if err := json.Unmarshal(get("/telemetry.json"), &snap); err != nil {
		t.Fatalf("/telemetry.json: %v", err)
	}
	if len(snap) == 0 {
		t.Fatal("/telemetry.json empty")
	}

	if !bytes.Contains(get("/debug/pprof/"), []byte("goroutine")) {
		t.Fatal("/debug/pprof/ index missing goroutine profile")
	}
}

func TestWriteDebugDump(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	r.Gauge("depth", "h").Set(9)
	stacks, snap, err := WriteDebugDump(filepath.Join(dir, "results"), r)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(stacks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sb, []byte("goroutine")) {
		t.Fatalf("stack dump has no goroutines: %q", sb[:min(len(sb), 100)])
	}
	jb, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	if err := json.Unmarshal(jb, &samples); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if len(samples) != 1 || samples[0].Value != 9 {
		t.Fatalf("snapshot = %+v", samples)
	}
}

func TestRunGaugesNilRegistry(t *testing.T) {
	if rg := NewRunGauges(nil, 0); rg != nil {
		t.Fatal("NewRunGauges(nil) must be nil")
	}
	if cg := NewCampaignGauges(nil); cg != nil {
		t.Fatal("NewCampaignGauges(nil) must be nil")
	}
	RegisterRuntime(nil) // must not panic
	var rg *RunGauges
	// Field access through a nil bundle is invalid; sample sites must
	// nil-check the bundle. Verify the handles inside a real bundle are
	// individually usable instead.
	_ = rg
	r := NewRegistry()
	g := NewRunGauges(r, 2)
	g.QueueDepth.Set(3)
	g.EventsTotal.Add(10)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	for _, want := range []string{
		`georoute_engine_queue_depth{worker="2"} 3`,
		"georoute_engine_events_total 10",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunGaugesSharedCounters(t *testing.T) {
	r := NewRegistry()
	a := NewRunGauges(r, 0)
	b := NewRunGauges(r, 1)
	a.EventsTotal.Add(3)
	b.EventsTotal.Add(4)
	if got := a.EventsTotal.Value(); got != 7 {
		t.Fatalf("shared counter = %d, want 7", got)
	}
	if a.QueueDepth.m == b.QueueDepth.m {
		t.Fatal("per-worker gauges must be distinct series")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func ExampleRegistry_WritePrometheus() {
	r := NewRegistry()
	r.Gauge("georoute_campaign_cells_done", "Cells completed.").Set(12)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP georoute_campaign_cells_done Cells completed.
	// # TYPE georoute_campaign_cells_done gauge
	// georoute_campaign_cells_done 12
}
