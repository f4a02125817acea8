package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("y")
	if c != nil || g != nil {
		t.Fatalf("nil registry must hand out nil handles")
	}
	c.Add(1)
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
	if err := r.WriteJSON(&buf); err != nil || strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil registry JSON = %q, %v", buf.String(), err)
	}
}

func TestNilHandleAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Add(3)
		g.Set(1.5)
	})
	if n != 0 {
		t.Fatalf("nil-handle ops allocated %v/op, want 0", n)
	}
}

func TestLiveHandleAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	g := r.Gauge("y")
	n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2.5)
	})
	if n != 0 {
		t.Fatalf("live handle ops allocated %v/op, want 0", n)
	}
}

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total")
	c.Add(1)
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	g := r.Gauge("depth")
	g.Set(-2.25)
	if got := g.Value(); got != -2.25 {
		t.Fatalf("gauge = %v, want -2.25", got)
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("n_total", Label{"worker", "0"})
	b := r.Counter("n_total", Label{"worker", "0"})
	a.Add(2)
	b.Add(3)
	if a.Value() != 5 || b.Value() != 5 {
		t.Fatalf("same identity must share a cell: %d vs %d", a.Value(), b.Value())
	}
	other := r.Counter("n_total", Label{"worker", "1"})
	if other.Value() != 0 {
		t.Fatalf("different labels must be a distinct series")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m")
}

func TestConcurrentPublishAndScrape(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", Label{"worker", "0"})
	c := r.Counter("events_total")
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
			c.Add(1)
		}
	}()
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var got []Sample
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("scrape %d invalid: %v\n%s", i, err, buf.String())
		}
		if len(got) != 2 || got[0].Name != "depth" || got[1].Name != "events_total" {
			t.Fatalf("scrape %d = %+v", i, got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotOrder pins the snapshot order: names in first-registration
// order, series within a name sorted by label identity.
func TestSnapshotOrder(t *testing.T) {
	r := NewRegistry()
	r.Gauge("georoute_engine_queue_depth", Label{"worker", "1"}).Set(42)
	r.Gauge("georoute_engine_queue_depth", Label{"worker", "0"}).Set(7)
	r.Counter("georoute_engine_events_total").Add(123)
	want := []Sample{
		{Name: "georoute_engine_queue_depth", Kind: "gauge", Labels: map[string]string{"worker": "0"}, Value: 7},
		{Name: "georoute_engine_queue_depth", Kind: "gauge", Labels: map[string]string{"worker": "1"}, Value: 42},
		{Name: "georoute_engine_events_total", Kind: "counter", Value: 123},
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %+v\nwant %+v", got, want)
	}
}

func TestOnCollectRefreshesBeforeSnapshot(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("lazy")
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
	r.WriteJSON(&buf)
	if calls != 2 || !strings.Contains(buf.String(), `"value": 2`) {
		t.Fatalf("JSON after second collect: calls=%d out=%q", calls, buf.String())
	}
}

func TestJSONSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Gauge("depth", Label{"worker", "3"}).Set(11)
	r.Counter("hits_total").Add(4)
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
	r.Gauge("depth").Set(5)
	r.Counter("hits_total").Add(2)
	RegisterRuntime(r)
	srv, err := ListenAndServe(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	get := func(path string, status int) []byte {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var snap []Sample
	if err := json.Unmarshal(get("/telemetry.json", http.StatusOK), &snap); err != nil {
		t.Fatalf("/telemetry.json: %v", err)
	}
	runtimeGauge := false
	for _, s := range snap {
		runtimeGauge = runtimeGauge || s.Name == "georoute_runtime_heap_bytes" && s.Value > 0
	}
	if !runtimeGauge {
		t.Fatalf("/telemetry.json missing runtime gauges: %+v", snap)
	}

	if !bytes.Contains(get("/debug/pprof/", http.StatusOK), []byte("goroutine")) {
		t.Fatal("/debug/pprof/ index missing goroutine profile")
	}
	get("/metrics", http.StatusNotFound)
}

// TestShutdownFreesAddress: once Shutdown returns, the address can be
// bound again, even when Serve's goroutine has not started yet.
func TestShutdownFreesAddress(t *testing.T) {
	addr := "127.0.0.1:0"
	for i := 0; i < 50; i++ {
		srv, err := ListenAndServe(NewRegistry(), addr)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		addr = srv.Addr
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteDebugDump(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	r.Gauge("depth").Set(9)
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
	want := map[string]Sample{
		"georoute_engine_queue_depth":  {Name: "georoute_engine_queue_depth", Kind: "gauge", Labels: map[string]string{"worker": "2"}, Value: 3},
		"georoute_engine_events_total": {Name: "georoute_engine_events_total", Kind: "counter", Value: 10},
	}
	for _, s := range r.Snapshot() {
		if w, ok := want[s.Name]; ok {
			if !reflect.DeepEqual(s, w) {
				t.Fatalf("snapshot sample = %+v, want %+v", s, w)
			}
			delete(want, s.Name)
		}
	}
	if len(want) != 0 {
		t.Fatalf("snapshot missing %v", want)
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

func ExampleRegistry_WriteJSON() {
	r := NewRegistry()
	r.Gauge("georoute_campaign_cells_done").Set(12)
	r.WriteJSON(os.Stdout)
	// Output:
	// [
	//   {
	//     "name": "georoute_campaign_cells_done",
	//     "kind": "gauge",
	//     "value": 12
	//   }
	// ]
}
