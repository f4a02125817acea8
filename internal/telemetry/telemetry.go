// Package telemetry is the runtime-health observability layer: a
// zero-dependency counter/gauge registry with a JSON snapshot, built for
// watching long campaign runs live.
//
// Where internal/trace answers "what happened to packet X", telemetry
// answers "how is the runtime doing right now": event-queue depth,
// events/sec, contention-buffer occupancy, heap growth, campaign
// progress. The two subsystems share one discipline — a nil handle is the
// disabled state and every instrumented call on it returns immediately —
// so instrumentation sites need no enabled flag and the hot paths stay
// zero-alloc with telemetry off.
//
// Concurrency model: simulation state (engine queue, routers, pools) is
// single-goroutine and must never be touched from a scrape. Instrumented
// components therefore PUBLISH into atomic metric cells from their own
// goroutine (the engine probe, see sim.Engine.SetProbe), and the HTTP
// snapshot goroutine only ever reads those atomics. Publishing is a
// wait-free atomic store; scraping can never block or perturb the event
// loop.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric (e.g. worker="3").
type Label struct {
	Key   string
	Value string
}

// kind distinguishes the two metric types of the registry.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
)

func (k kind) String() string {
	if k == kindCounter {
		return "counter"
	}
	return "gauge"
}

// metric is one registered time series: an identity plus an atomic value
// cell. Counters store the value directly as a uint64; gauges store
// math.Float64bits of the value.
type metric struct {
	name   string
	kind   kind
	labels []Label
	bits   atomic.Uint64
}

// id renders the metric's full identity (name plus sorted label pairs),
// the deduplication key inside the registry.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\xff')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Registry holds the process's metrics. The zero value is not usable;
// construct with NewRegistry. A nil *Registry is the disabled state: every
// registration returns a nil handle whose operations are no-ops, so a
// single optional *Registry threads through the whole stack.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric // registration order
	index   map[string]*metric
	collect []func()
}

// NewRegistry constructs an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// register returns the metric with the given identity, creating it on
// first use. Re-registering an existing identity with a different kind is
// a programming error and panics.
func (r *Registry) register(name string, k kind, labels []Label) *metric {
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[id]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", name, k, m.kind))
		}
		return m
	}
	m := &metric{name: name, kind: k, labels: append([]Label(nil), labels...)}
	r.index[id] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or looks up) a monotonically increasing counter.
// Counter names end in "_total". On a nil registry it returns nil, whose
// methods are no-ops.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{m: r.register(name, kindCounter, labels)}
}

// Gauge registers (or looks up) an instantaneous-value gauge. On a nil
// registry it returns nil, whose methods are no-ops.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{m: r.register(name, kindGauge, labels)}
}

// OnCollect registers a hook run before every snapshot —
// the place to refresh gauges that are cheaper to sample on demand than
// continuously (e.g. runtime.ReadMemStats). Hooks run on the scraping
// goroutine and must only touch goroutine-safe state. No-op on nil.
func (r *Registry) OnCollect(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collect = append(r.collect, fn)
	r.mu.Unlock()
}

// snapshotMetrics runs the collect hooks and returns the metric list in a
// deterministic order: grouped by name in first-registration
// order of the name, then by label identity.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	hooks := append([]func(){}, r.collect...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	ms := append([]*metric{}, r.metrics...)
	r.mu.Unlock()
	nameRank := make(map[string]int, len(ms))
	for _, m := range ms {
		if _, ok := nameRank[m.name]; !ok {
			nameRank[m.name] = len(nameRank)
		}
	}
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return nameRank[ms[i].name] < nameRank[ms[j].name]
		}
		return metricID(ms[i].name, ms[i].labels) < metricID(ms[j].name, ms[j].labels)
	})
	return ms
}

// value reads the metric's current value as a float64.
func (m *metric) value() float64 {
	b := m.bits.Load()
	if m.kind == kindCounter {
		return float64(b)
	}
	return math.Float64frombits(b)
}

// Sample is one time series in a JSON snapshot.
type Sample struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Snapshot runs the collect hooks and returns every series' current
// value: names in first-registration order, series within a name sorted
// by label identity. Nil registry returns nil.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	ms := r.snapshotMetrics()
	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, Kind: m.kind.String(), Value: m.value()}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				s.Labels[l.Key] = l.Value
			}
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON writes the snapshot as an indented JSON array — the payload
// of the /telemetry.json endpoint and of debug dumps.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	samples := r.Snapshot()
	if samples == nil {
		samples = []Sample{}
	}
	return enc.Encode(samples)
}

// Counter is a handle to a monotonically increasing metric. A nil handle
// is the disabled state: Add returns immediately.
type Counter struct {
	m *metric
}

// Add increments the counter by n. Safe on nil and safe for concurrent
// use.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.m.bits.Add(n)
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.m.bits.Load()
}

// Gauge is a handle to an instantaneous-value metric. A nil handle is the
// disabled state: Set returns immediately.
type Gauge struct {
	m *metric
}

// Set stores the gauge value. Safe on nil and safe for concurrent use
// (last write wins).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.m.bits.Store(math.Float64bits(v))
}

// Value reads the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.m.bits.Load())
}
