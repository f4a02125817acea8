package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// allRecords covers every enum value at least once, with representative
// field combinations (zero and non-zero optional fields).
func allRecords() []Record {
	return []Record{
		{At: 0, Node: 1, Src: 1, SN: 1, Event: EvOriginate, PType: PTGeoUnicast, RHL: 10},
		{At: 500 * time.Microsecond, Node: 1, Peer: 2, Src: 1, SN: 1, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 10},
		{At: time.Millisecond, Node: 2, Peer: 1, Src: 1, SN: 1, Event: EvRX, PType: PTGeoUnicast, RHL: 10},
		{At: time.Millisecond, Node: 2, Peer: 1, Src: 1, SN: 1, Event: EvDeliver, PType: PTGeoUnicast, RHL: 10},
		{At: 2 * time.Millisecond, Node: 3, Event: EvDrop, Reason: ReasonDecodeFail},
		{At: 2 * time.Millisecond, Node: 3, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonVerifyReject, PType: PTGeoBroadcast, RHL: 5},
		{At: 3 * time.Millisecond, Node: 4, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonOwnEcho, PType: PTGeoBroadcast, RHL: 1},
		{At: 3 * time.Millisecond, Node: 4, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonDuplicate, PType: PTGeoUnicast},
		{At: 3 * time.Millisecond, Node: 4, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonDupCustody, PType: PTGeoUnicast},
		{At: 3 * time.Millisecond, Node: 4, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonDupIgnored, PType: PTGeoBroadcast},
		{At: 3 * time.Millisecond, Node: 4, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonRHLExpired, PType: PTGeoBroadcast},
		{At: 4 * time.Millisecond, Node: 5, Src: 9, SN: 2, Event: EvDrop, Kind: KindBuffer, Reason: ReasonGFExpired, PType: PTGeoUnicast},
		{At: 4 * time.Millisecond, Node: 5, Src: 9, SN: 2, Event: EvCBFCancel, Kind: KindArm, Reason: ReasonCBFCanceled, PType: PTGeoBroadcast},
		{At: 4 * time.Millisecond, Node: 5, Src: 9, SN: 2, Event: EvDrop, Kind: KindArm, Reason: ReasonStopped, PType: PTGeoBroadcast},
		{At: 4 * time.Millisecond, Node: 5, Peer: 4, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonLifetimeExpired, PType: PTGeoUnicast, RHL: 4},
		{At: 5 * time.Millisecond, Node: 6, Src: 6, SN: 3, Event: EvCBFArm, Kind: KindArm, PType: PTGeoBroadcast, RHL: 9},
		{At: 5 * time.Millisecond, Node: 6, Src: 6, SN: 3, Event: EvGFBuffer, Kind: KindBuffer, PType: PTGeoUnicast, RHL: 9},
		{At: 6 * time.Millisecond, Node: 7, Peer: 8, Event: EvUnicastLoss},
		{At: 7 * time.Millisecond, Node: 0xA77AC4E2, Src: 6, SN: 3, Event: EvCapture, PType: PTGeoBroadcast, RHL: 9},
		{At: 8 * time.Millisecond, Node: 0xA77AC4E2, Src: 6, SN: 3, Event: EvReplay, PType: PTGeoBroadcast, RHL: 1},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindBeacon, PType: PTBeacon, RHL: 1},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindGFRetry, PType: PTGeoUnicast, RHL: 3},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindCBFSource, PType: PTGeoBroadcast, RHL: 10},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindCBFEntry, PType: PTGeoBroadcast, RHL: 9},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindCBFFire, PType: PTGeoBroadcast, RHL: 8},
		{At: 9 * time.Millisecond, Node: 8, Peer: 9, Src: 8, SN: 4, Event: EvTX, Kind: KindPerimeter, PType: PTGeoUnicast, RHL: 7},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvDrop, Kind: KindBuffer, Reason: ReasonStopped, PType: PTGeoUnicast, RHL: 3},
		{At: 10 * time.Millisecond, Node: 9, Peer: 8, Src: 8, SN: 4, Event: EvRX, PType: PTGeoBroadcast, RHL: 6},
		{At: 10 * time.Millisecond, Node: 9, Peer: 8, Src: 8, SN: 4, Event: EvDeliver, PType: PTGeoBroadcast, RHL: 6},
	}
}

func TestEnumNamesTotal(t *testing.T) {
	for e := EvOriginate; e < numEvents; e++ {
		if e.String() == "unknown" || e.String() == "" {
			t.Errorf("event %d has no name", e)
		}
	}
	for k := KindBeacon; k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	for r := ReasonDecodeFail; r < numReasons; r++ {
		if r.String() == "unknown" || r.String() == "" {
			t.Errorf("reason %d has no name", r)
		}
	}
	for p := PTBeacon; p < numPTypes; p++ {
		if p.String() == "unknown" || p.String() == "" {
			t.Errorf("ptype %d has no name", p)
		}
	}
	if Event(numEvents).String() != "unknown" {
		t.Error("out-of-range event must stringify as unknown")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for i, r := range allRecords() {
		line := AppendJSON(nil, r)
		if line[len(line)-1] != '\n' {
			t.Fatalf("record %d: missing trailing newline", i)
		}
		got, err := DecodeRecord(bytes.TrimRight(line, "\n"))
		if err != nil {
			t.Fatalf("record %d: decode %q: %v", i, line, err)
		}
		if got != r {
			t.Errorf("record %d round-trip mismatch:\n in: %+v\nout: %+v\nwire: %s", i, r, got, line)
		}
	}
}

func TestDecodeRecordStrict(t *testing.T) {
	cases := []string{
		`{"t":1,"ev":"tx","node":1,"bogus":2}`,                // unknown field
		`{"t":1,"ev":"teleport","node":1}`,                    // unknown event
		`{"t":1,"ev":"drop","node":1,"reason":"cosmic_rays"}`, // unknown reason
		`{"t":1,"ev":"tx","node":1,"kind":"warp"}`,            // unknown kind
		`{"t":1,"ev":"tx","node":1,"pt":"quic"}`,              // unknown ptype
		`{"t":1,"node":1}`,                                    // missing event
		`not json`,
		`{"t":5,"ev":"rx","node":1,"pt":"beacon"}{"t":5,"ev":"rx","node":2,"pt":"beacon"}`, // two records
		`{"t":5,"ev":"rx","node":1} {"t":6}`,                                               // trailing value
		`{"t":5,"ev":"rx","node":1}}`,                                                      // stray brace
		`{"t":5,"ev":"rx","node":1} x`,                                                     // trailing garbage
	}
	for _, c := range cases {
		if _, err := DecodeRecord([]byte(c)); err == nil {
			t.Errorf("DecodeRecord(%s) accepted invalid input", c)
		}
	}
	for _, c := range retiredNameLines {
		if _, err := DecodeRecord([]byte(c)); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("DecodeRecord(%s) = %v, want an unknown-name error", c, err)
		}
	}
}

// retiredNameLines name the packet types, kinds and drop reason of the
// retired single-hop broadcast, topologically-scoped broadcast and
// location service. They are unknown names like any other.
var retiredNameLines = []string{
	`{"t":1,"ev":"tx","node":1,"pt":"shb"}`,
	`{"t":1,"ev":"tx","node":1,"pt":"tsb"}`,
	`{"t":1,"ev":"tx","node":1,"pt":"lsreq"}`,
	`{"t":1,"ev":"tx","node":1,"pt":"lsrep"}`,
	`{"t":1,"ev":"tx","node":1,"kind":"shb"}`,
	`{"t":1,"ev":"tx","node":1,"kind":"tsb"}`,
	`{"t":1,"ev":"tx","node":1,"kind":"flood"}`,
	`{"t":1,"ev":"drop","node":1,"reason":"ls_expired"}`,
}

func TestReadJSONLReportsLineNumbers(t *testing.T) {
	in := AppendJSON(nil, allRecords()[0])
	in = append(in, []byte("\n{\"t\":1,\"ev\":\"nope\",\"node\":1}\n")...)
	_, err := ReadJSONL(bytes.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line-numbered error, got %v", err)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Emit(Record{Event: EvTX}) // must not panic
	if New() != nil {
		t.Error("New with no sinks must return nil so the fast path stays nil-checked")
	}
	if tr := New(&MemorySink{}); tr == nil {
		t.Error("New with a sink returned nil")
	}
}

func TestTracerFanOut(t *testing.T) {
	a, b := &MemorySink{}, &MemorySink{}
	tr := New(a, b)
	for _, r := range allRecords() {
		tr.Emit(r)
	}
	if len(a.Records) != len(allRecords()) || len(b.Records) != len(allRecords()) {
		t.Fatalf("fan-out mismatch: %d / %d records", len(a.Records), len(b.Records))
	}
	if a.Records[3] != allRecords()[3] {
		t.Error("records must be stored by value, unmodified")
	}
}

// TestTracerNests: a tracer is a sink of another tracer, and New leaves
// out nil tracers, so an optional tracer composes with more sinks.
func TestTracerNests(t *testing.T) {
	var off *Tracer
	if New(off) != nil {
		t.Error("New over only a nil tracer must return the nil tracer")
	}
	inner, outer := &MemorySink{}, &MemorySink{}
	tr := New(off, New(inner), outer)
	for _, r := range allRecords() {
		tr.Emit(r)
	}
	if len(inner.Records) != len(allRecords()) || len(outer.Records) != len(allRecords()) {
		t.Fatalf("nested fan-out mismatch: %d / %d records", len(inner.Records), len(outer.Records))
	}
}

func TestCountersRollup(t *testing.T) {
	c := NewCounters()
	for _, r := range allRecords() {
		c.Record(r)
	}
	tot := c.Totals()
	if got := tot.Events[EvTX]; got != 7 {
		t.Errorf("TX total = %d, want 7", got)
	}
	if got := tot.Drops[ReasonDecodeFail]; got != 1 {
		t.Errorf("decode_fail total = %d, want 1", got)
	}
	// The cancel event carries ReasonCBFCanceled and must be tallied as a
	// categorized discard.
	if got := tot.Drops[ReasonCBFCanceled]; got != 1 {
		t.Errorf("cbf_canceled total = %d, want 1", got)
	}
	nodes := c.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("Nodes() not ascending: %v", nodes)
		}
	}
	roll := c.Rollup()
	if roll.Totals.Events["tx"] != 7 {
		t.Errorf("rollup tx = %d, want 7", roll.Totals.Events["tx"])
	}
	if roll.Totals.Drops["verify_reject"] != 1 {
		t.Errorf("rollup verify_reject = %d, want 1", roll.Totals.Drops["verify_reject"])
	}
	if len(roll.PerNode) != len(nodes) {
		t.Errorf("rollup has %d nodes, want %d", len(roll.PerNode), len(nodes))
	}
}

// TestJSONLWriterAllocs pins the per-record cost of the streaming sink
// at 0: each record is encoded straight into the bufio buffer's free
// space.
func TestJSONLWriterAllocs(t *testing.T) {
	w := NewJSONLWriter(io.Discard)
	recs := allRecords()
	// Warm the buffers so growth doesn't count.
	for _, r := range recs {
		w.Record(r)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		w.Record(recs[i%len(recs)])
		i++
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("JSONL sink allocates %.1f/record, want 0", allocs)
	}
}

// TestMaxRecordLen: the longest record AppendJSON can produce fits in
// maxRecordLen. Every field is present with its longest value, and each
// enum takes its longest rendering, the fallback "unknown" included.
func TestMaxRecordLen(t *testing.T) {
	longest := func(n int, name func(i int) string) int {
		best := n // out of range: renders "unknown"
		for i := 0; i < n; i++ {
			if len(name(i)) > len(name(best)) {
				best = i
			}
		}
		return best
	}
	r := Record{
		At: math.MinInt64, Node: math.MaxUint64, Peer: math.MaxUint64, Src: math.MaxUint64,
		SN: math.MaxUint16, RHL: math.MaxUint8,
		Event:  Event(longest(int(numEvents), func(i int) string { return Event(i).String() })),
		Kind:   Kind(longest(int(numKinds), func(i int) string { return Kind(i).String() })),
		Reason: Reason(longest(int(numReasons), func(i int) string { return Reason(i).String() })),
		PType:  PType(longest(int(numPTypes), func(i int) string { return PType(i).String() })),
	}
	if n := len(AppendJSON(nil, r)); n > maxRecordLen {
		t.Fatalf("longest record is %d bytes, past maxRecordLen %d: %s", n, maxRecordLen, AppendJSON(nil, r))
	}
}

// TestJSONLWriterMatchesAppendJSON: records streamed through the writer,
// across many buffer flushes, are byte for byte the concatenation of
// their AppendJSON encodings.
// TestCountersMatchMap tallies records over enough nodes to grow the
// registry's table several times, node 0 included, and checks every
// node's tallies and the rollup's ascending node order against a map.
func TestCountersMatchMap(t *testing.T) {
	c := NewCounters()
	model := make(map[uint64]*NodeCounters)
	recs := allRecords()
	for i := 0; i < 5000; i++ {
		r := recs[i%len(recs)]
		r.Node = uint64(i*7919%300) << 40
		c.Record(r)
		nc := model[r.Node]
		if nc == nil {
			nc = &NodeCounters{}
			model[r.Node] = nc
		}
		nc.Events[r.Event]++
		if r.Reason != ReasonNone {
			nc.Drops[r.Reason]++
		}
	}
	roll := c.Rollup()
	if len(roll.PerNode) != len(model) {
		t.Fatalf("rollup has %d nodes, want %d", len(roll.PerNode), len(model))
	}
	for i, ns := range roll.PerNode {
		if i > 0 && roll.PerNode[i-1].Node >= ns.Node {
			t.Fatalf("rollup nodes not ascending at %d: %d then %d", i, roll.PerNode[i-1].Node, ns.Node)
		}
		want := model[ns.Node].set()
		if fmt.Sprint(ns.CounterSet) != fmt.Sprint(want) {
			t.Fatalf("node %d: rollup %v, want %v", ns.Node, ns.CounterSet, want)
		}
	}
}

func TestJSONLWriterMatchesAppendJSON(t *testing.T) {
	var got bytes.Buffer
	w := NewJSONLWriter(&got)
	var want []byte
	recs := allRecords()
	for i := 0; i < 5000; i++ {
		r := recs[i%len(recs)]
		r.At = time.Duration(i) * time.Millisecond
		r.Node = uint64(i) * 0x9E3779B97F4A7C15
		w.Record(r)
		want = AppendJSON(want, r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed %d bytes, want %d bytes of AppendJSON output", got.Len(), len(want))
	}
}

func TestJSONLWriterLatchesError(t *testing.T) {
	w := NewJSONLWriter(failWriter{})
	for i := 0; i < 100000; i++ { // enough to overflow the 64 KB buffer
		w.Record(Record{At: time.Duration(i), Node: 1, Event: EvTX, Kind: KindBeacon, PType: PTBeacon})
	}
	if err := w.Flush(); err == nil {
		t.Fatal("write error was swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func BenchmarkTraceEmitNil(b *testing.B) {
	var tr *Tracer
	r := allRecords()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(r)
	}
}

func BenchmarkTraceEmitJSONL(b *testing.B) {
	tr := New(NewJSONLWriter(io.Discard))
	r := allRecords()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(r)
	}
}

func BenchmarkTraceEmitCounters(b *testing.B) {
	c := NewCounters()
	tr := New(c)
	r := allRecords()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(r)
	}
}
