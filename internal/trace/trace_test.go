package trace

import (
	"bytes"
	"io"
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
		{At: 3 * time.Millisecond, Node: 4, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonDuplicate, PType: PTSHB},
		{At: 3 * time.Millisecond, Node: 4, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonDupCustody, PType: PTGeoUnicast},
		{At: 3 * time.Millisecond, Node: 4, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonDupIgnored, PType: PTGeoBroadcast},
		{At: 3 * time.Millisecond, Node: 4, Src: 9, SN: 2, Event: EvDrop, Reason: ReasonRHLExpired, PType: PTTSB},
		{At: 4 * time.Millisecond, Node: 5, Src: 9, SN: 2, Event: EvDrop, Kind: KindBuffer, Reason: ReasonGFExpired, PType: PTGeoUnicast},
		{At: 4 * time.Millisecond, Node: 5, Src: 9, SN: 2, Event: EvCBFCancel, Kind: KindArm, Reason: ReasonCBFCanceled, PType: PTGeoBroadcast},
		{At: 4 * time.Millisecond, Node: 5, Src: 9, SN: 2, Event: EvDrop, Kind: KindArm, Reason: ReasonStopped, PType: PTGeoBroadcast},
		{At: 4 * time.Millisecond, Node: 5, Event: EvDrop, Reason: ReasonLSExpired},
		{At: 5 * time.Millisecond, Node: 6, Src: 6, SN: 3, Event: EvCBFArm, Kind: KindArm, PType: PTGeoBroadcast, RHL: 9},
		{At: 5 * time.Millisecond, Node: 6, Src: 6, SN: 3, Event: EvGFBuffer, Kind: KindBuffer, PType: PTGeoUnicast, RHL: 9},
		{At: 6 * time.Millisecond, Node: 7, Peer: 8, Event: EvUnicastLoss},
		{At: 7 * time.Millisecond, Node: 0xA77AC4E2, Src: 6, SN: 3, Event: EvCapture, PType: PTGeoBroadcast, RHL: 9},
		{At: 8 * time.Millisecond, Node: 0xA77AC4E2, Src: 6, SN: 3, Event: EvReplay, PType: PTGeoBroadcast, RHL: 1},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindBeacon, PType: PTBeacon, RHL: 1},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindSHB, PType: PTSHB, RHL: 1},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindGFRetry, PType: PTGeoUnicast, RHL: 3},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindCBFSource, PType: PTGeoBroadcast, RHL: 10},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindCBFEntry, PType: PTGeoBroadcast, RHL: 9},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindCBFFire, PType: PTGeoBroadcast, RHL: 8},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindTSB, PType: PTTSB, RHL: 7},
		{At: 9 * time.Millisecond, Node: 8, Src: 8, SN: 4, Event: EvTX, Kind: KindFlood, PType: PTLSRequest, RHL: 6},
		{At: 10 * time.Millisecond, Node: 9, Peer: 8, Src: 8, SN: 4, Event: EvDeliver, PType: PTLSReply, RHL: 1},
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

func TestCountersRollup(t *testing.T) {
	c := NewCounters()
	for _, r := range allRecords() {
		c.Record(r)
	}
	tot := c.Totals()
	if got := tot.Events[EvTX]; got != 9 {
		t.Errorf("TX total = %d, want 9", got)
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
	if roll.Totals.Events["tx"] != 9 {
		t.Errorf("rollup tx = %d, want 9", roll.Totals.Events["tx"])
	}
	if roll.Totals.Drops["verify_reject"] != 1 {
		t.Errorf("rollup verify_reject = %d, want 1", roll.Totals.Drops["verify_reject"])
	}
	if len(roll.PerNode) != len(nodes) {
		t.Errorf("rollup has %d nodes, want %d", len(roll.PerNode), len(nodes))
	}
}

// TestJSONLWriterAllocs pins the per-record cost of the streaming sink:
// at most 2 allocations per record (ISSUE acceptance; steady state is 0 —
// the line buffer and bufio buffer are reused).
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
	if allocs > 2 {
		t.Fatalf("JSONL sink allocates %.1f/record, want <= 2", allocs)
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
