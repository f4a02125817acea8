package trace

import (
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// chainByKey finds one chain in an analysis or fails the test.
func chainByKey(t *testing.T, a *Analysis, src uint64, sn uint16) *Chain {
	t.Helper()
	for _, c := range a.Chains {
		if c.Key == (ChainKey{Src: src, SN: sn}) {
			return c
		}
	}
	t.Fatalf("no chain for src=%d sn=%d (have %d chains)", src, sn, len(a.Chains))
	return nil
}

// TestAnalyzeDeliveredUnicast walks a two-hop greedy-forwarded unicast and
// checks the balance, the RHL-derived hop count, and the latency.
func TestAnalyzeDeliveredUnicast(t *testing.T) {
	recs := []Record{
		{At: ms(0), Node: 1, Src: 1, SN: 7, Event: EvOriginate, PType: PTGeoUnicast, RHL: 10},
		{At: ms(0), Node: 1, Peer: 2, Src: 1, SN: 7, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 10},
		{At: ms(1), Node: 2, Peer: 1, Src: 1, SN: 7, Event: EvRX, PType: PTGeoUnicast, RHL: 10},
		{At: ms(1), Node: 2, Peer: 3, Src: 1, SN: 7, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 9},
		{At: ms(2), Node: 3, Peer: 2, Src: 1, SN: 7, Event: EvRX, PType: PTGeoUnicast, RHL: 9},
		{At: ms(2), Node: 3, Peer: 2, Src: 1, SN: 7, Event: EvDeliver, PType: PTGeoUnicast, RHL: 9},
	}
	a := Analyze(recs)
	if v := a.Violations(); len(v) > 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	c := chainByKey(t, a, 1, 7)
	if c.Delivered != 1 || c.TX != 2 || c.RX != 2 || c.Intakes != 3 || c.Lost != 0 {
		t.Errorf("chain accounting wrong: %+v", c)
	}
	if c.HopCount != 2 {
		t.Errorf("HopCount = %d, want 2 (RHL 10 -> 9)", c.HopCount)
	}
	if c.Latency != ms(2) {
		t.Errorf("Latency = %v, want 2ms", c.Latency)
	}
	if a.Delivered() != 1 {
		t.Errorf("Delivered() = %d, want 1", a.Delivered())
	}
	if !strings.Contains(a.Summary(), "DELIVERED hops=2") {
		t.Errorf("summary missing delivery line:\n%s", a.Summary())
	}
}

// TestAnalyzeLostUnicast: a transmission whose target never received the
// frame counts as Lost, and the chain still balances (the sender's copy
// was disposed of by the TX).
func TestAnalyzeLostUnicast(t *testing.T) {
	recs := []Record{
		{At: ms(0), Node: 1, Src: 1, SN: 3, Event: EvOriginate, PType: PTGeoUnicast, RHL: 10},
		{At: ms(0), Node: 1, Peer: 2, Src: 1, SN: 3, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 10},
	}
	a := Analyze(recs)
	if v := a.Violations(); len(v) > 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	c := chainByKey(t, a, 1, 3)
	if c.Lost != 1 || c.Delivered != 0 || c.HopCount != 0 {
		t.Errorf("lost accounting wrong: %+v", c)
	}
	if !strings.Contains(a.Summary(), "LOST") {
		t.Errorf("summary missing LOST status:\n%s", a.Summary())
	}
}

// TestAnalyzeBufferLifecycle: a GF buffer entry is a valid holding-state
// disposition; a later retry TX resolves it.
func TestAnalyzeBufferLifecycle(t *testing.T) {
	pending := []Record{
		{At: ms(0), Node: 1, Src: 1, SN: 4, Event: EvOriginate, PType: PTGeoUnicast, RHL: 10},
		{At: ms(0), Node: 1, Src: 1, SN: 4, Event: EvGFBuffer, Kind: KindBuffer, PType: PTGeoUnicast, RHL: 10},
	}
	a := Analyze(pending)
	if v := a.Violations(); len(v) > 0 {
		t.Fatalf("pending buffer must balance, got: %v", v)
	}
	c := chainByKey(t, a, 1, 4)
	if c.Buffered != 1 || c.BufferPending != 1 {
		t.Errorf("pending buffer accounting wrong: %+v", c)
	}
	if !strings.Contains(a.Summary(), "PENDING") {
		t.Errorf("summary missing PENDING status:\n%s", a.Summary())
	}

	resolved := append(pending,
		Record{At: ms(500), Node: 1, Peer: 2, Src: 1, SN: 4, Event: EvTX, Kind: KindGFRetry, PType: PTGeoUnicast, RHL: 10},
		Record{At: ms(501), Node: 2, Peer: 1, Src: 1, SN: 4, Event: EvRX, PType: PTGeoUnicast, RHL: 10},
		Record{At: ms(501), Node: 2, Peer: 1, Src: 1, SN: 4, Event: EvDeliver, PType: PTGeoUnicast, RHL: 10},
	)
	a = Analyze(resolved)
	if v := a.Violations(); len(v) > 0 {
		t.Fatalf("resolved buffer must balance, got: %v", v)
	}
	c = chainByKey(t, a, 1, 4)
	if c.BufferPending != 0 || c.Delivered != 1 || c.HopCount != 1 {
		t.Errorf("resolved buffer accounting wrong: %+v", c)
	}

	expired := append(pending,
		Record{At: ms(900), Node: 1, Src: 1, SN: 4, Event: EvDrop, Kind: KindBuffer, Reason: ReasonGFExpired, PType: PTGeoUnicast, RHL: 10},
	)
	a = Analyze(expired)
	if v := a.Violations(); len(v) > 0 {
		t.Fatalf("expired buffer must balance, got: %v", v)
	}
	c = chainByKey(t, a, 1, 4)
	if c.BufferPending != 0 || c.Drops[ReasonGFExpired] != 1 {
		t.Errorf("expired buffer accounting wrong: %+v", c)
	}
}

// TestAnalyzeCBFBroadcast models a broadcast contention: two receivers arm
// timers, one fires, and the fired copy's arrival at the other cancels its
// contention. GBC deliveries are informational (non-consuming).
func TestAnalyzeCBFBroadcast(t *testing.T) {
	recs := []Record{
		{At: ms(0), Node: 1, Src: 1, SN: 9, Event: EvOriginate, PType: PTGeoBroadcast, RHL: 10},
		{At: ms(0), Node: 1, Src: 1, SN: 9, Event: EvTX, Kind: KindCBFSource, PType: PTGeoBroadcast, RHL: 10},
		{At: ms(1), Node: 2, Peer: 1, Src: 1, SN: 9, Event: EvRX, PType: PTGeoBroadcast, RHL: 10},
		{At: ms(1), Node: 2, Peer: 1, Src: 1, SN: 9, Event: EvDeliver, PType: PTGeoBroadcast, RHL: 10},
		{At: ms(1), Node: 2, Src: 1, SN: 9, Event: EvCBFArm, Kind: KindArm, PType: PTGeoBroadcast, RHL: 9},
		{At: ms(1), Node: 3, Peer: 1, Src: 1, SN: 9, Event: EvRX, PType: PTGeoBroadcast, RHL: 10},
		{At: ms(1), Node: 3, Src: 1, SN: 9, Event: EvCBFArm, Kind: KindArm, PType: PTGeoBroadcast, RHL: 9},
		{At: ms(40), Node: 3, Src: 1, SN: 9, Event: EvTX, Kind: KindCBFFire, PType: PTGeoBroadcast, RHL: 9},
		{At: ms(41), Node: 2, Peer: 3, Src: 1, SN: 9, Event: EvRX, PType: PTGeoBroadcast, RHL: 9},
		{At: ms(41), Node: 2, Peer: 3, Src: 1, SN: 9, Event: EvCBFCancel, Kind: KindArm, Reason: ReasonCBFCanceled, PType: PTGeoBroadcast, RHL: 9},
	}
	a := Analyze(recs)
	if v := a.Violations(); len(v) > 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	c := chainByKey(t, a, 1, 9)
	if c.Armed != 2 || c.ArmPending != 0 || c.Canceled != 1 {
		t.Errorf("contention accounting wrong: %+v", c)
	}
	if c.Intakes != 4 || c.Drops[ReasonCBFCanceled] != 1 {
		t.Errorf("copy accounting wrong: %+v", c)
	}
	// GBC delivery is informational: Delivered counts it but it is not a
	// copy disposition.
	if c.Delivered != 1 || c.HopCount != 1 {
		t.Errorf("delivery accounting wrong: %+v", c)
	}
}

// TestAnalyzeViolations: an undisposed RX, a missing originate, an
// over-resolved contention and a relay that does not lower the RHL must
// all be flagged.
func TestAnalyzeViolations(t *testing.T) {
	leaked := []Record{
		{At: ms(0), Node: 1, Src: 1, SN: 2, Event: EvOriginate, PType: PTGeoUnicast, RHL: 10},
		{At: ms(0), Node: 1, Peer: 2, Src: 1, SN: 2, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 10},
		{At: ms(1), Node: 2, Peer: 1, Src: 1, SN: 2, Event: EvRX, PType: PTGeoUnicast, RHL: 10},
		// node 2 never disposes of the copy: no TX, drop, deliver, or hold.
	}
	if v := Analyze(leaked).Violations(); len(v) != 1 || !strings.Contains(v[0], "disposed") {
		t.Errorf("leaked copy not flagged: %v", v)
	}

	orphan := []Record{
		{At: ms(1), Node: 2, Peer: 1, Src: 5, SN: 1, Event: EvRX, PType: PTGeoBroadcast, RHL: 9},
		{At: ms(1), Node: 2, Src: 5, SN: 1, Event: EvCBFArm, Kind: KindArm, PType: PTGeoBroadcast, RHL: 8},
	}
	if v := Analyze(orphan).Violations(); len(v) != 1 || !strings.Contains(v[0], "originate") {
		t.Errorf("missing originate not flagged: %v", v)
	}

	overFire := []Record{
		{At: ms(0), Node: 1, Src: 1, SN: 6, Event: EvOriginate, PType: PTGeoBroadcast, RHL: 10},
		{At: ms(0), Node: 1, Src: 1, SN: 6, Event: EvTX, Kind: KindCBFSource, PType: PTGeoBroadcast, RHL: 10},
		{At: ms(5), Node: 1, Src: 1, SN: 6, Event: EvTX, Kind: KindCBFFire, PType: PTGeoBroadcast, RHL: 10},
	}
	v := Analyze(overFire).Violations()
	found := false
	for _, s := range v {
		if strings.Contains(s, "contention resolutions") {
			found = true
		}
	}
	if !found {
		t.Errorf("over-resolved contention not flagged: %v", v)
	}

	// Node 2 accepts the packet at RHL 10 and 8 and relays each copy: the
	// copies balance, but the second relay sends RHL 10, not below the
	// highest RHL the node accepted.
	noDecrement := []Record{
		{At: ms(0), Node: 1, Src: 1, SN: 4, Event: EvOriginate, PType: PTGeoUnicast, RHL: 10},
		{At: ms(0), Node: 1, Peer: 2, Src: 1, SN: 4, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 10},
		{At: ms(1), Node: 2, Peer: 1, Src: 1, SN: 4, Event: EvRX, PType: PTGeoUnicast, RHL: 10},
		{At: ms(1), Node: 2, Peer: 3, Src: 1, SN: 4, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 9},
		{At: ms(2), Node: 2, Peer: 3, Src: 1, SN: 4, Event: EvRX, PType: PTGeoUnicast, RHL: 8},
		{At: ms(2), Node: 2, Peer: 4, Src: 1, SN: 4, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 10},
	}
	if v := Analyze(noDecrement).Violations(); len(v) != 1 || !strings.Contains(v[0], "node 2 sent RHL 10, not below the RHL 10") {
		t.Errorf("relay without RHL decrement not flagged: %v", v)
	}
	// The source itself and the attacker's verbatim replays are exempt.
	exempt := []Record{
		{At: ms(0), Node: 1, Src: 1, SN: 5, Event: EvOriginate, PType: PTGeoUnicast, RHL: 10},
		{At: ms(0), Node: 1, Peer: 2, Src: 1, SN: 5, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 10},
		{At: ms(1), Node: 2, Peer: 1, Src: 1, SN: 5, Event: EvRX, PType: PTGeoUnicast, RHL: 10},
		{At: ms(1), Node: 2, Src: 1, SN: 5, Event: EvReplay, PType: PTGeoUnicast, RHL: 10},
		{At: ms(1), Node: 2, Peer: 3, Src: 1, SN: 5, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 9},
	}
	if v := Analyze(exempt).Violations(); len(v) != 0 {
		t.Errorf("source TX or replay flagged: %v", v)
	}
}

// TestAnalyzeFrameLevelDrops: decode failures (no packet identity) and
// verify rejections (identity but no intake) stay out of the copy balance,
// and a verify rejection still settles the unicast loss accounting.
func TestAnalyzeFrameLevelDrops(t *testing.T) {
	recs := []Record{
		{At: ms(0), Node: 2, Event: EvDrop, Reason: ReasonDecodeFail},
		{At: ms(0), Node: 1, Src: 1, SN: 8, Event: EvOriginate, PType: PTGeoUnicast, RHL: 10},
		{At: ms(0), Node: 1, Peer: 2, Src: 1, SN: 8, Event: EvTX, Kind: KindGF, PType: PTGeoUnicast, RHL: 10},
		{At: ms(1), Node: 2, Peer: 1, Src: 1, SN: 8, Event: EvDrop, Reason: ReasonVerifyReject, PType: PTGeoUnicast, RHL: 10},
	}
	a := Analyze(recs)
	if v := a.Violations(); len(v) > 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	if a.FrameDrops[ReasonDecodeFail] != 1 || a.FrameDrops[ReasonVerifyReject] != 1 {
		t.Errorf("frame drops wrong: %v", a.FrameDrops)
	}
	c := chainByKey(t, a, 1, 8)
	if c.Lost != 0 {
		t.Errorf("verify-rejected frame wrongly counted as lost: %+v", c)
	}
	if c.Drops[ReasonVerifyReject] != 1 {
		t.Errorf("chain-level reject tally missing: %+v", c)
	}
}

// TestAnalyzeSkipsNonChainRecords: beacons and attacker capture/replay
// records never form chains.
func TestAnalyzeSkipsNonChainRecords(t *testing.T) {
	recs := []Record{
		{At: ms(0), Node: 1, Src: 1, SN: 1, Event: EvTX, Kind: KindBeacon, PType: PTBeacon, RHL: 1},
		{At: ms(1), Node: 2, Peer: 1, Src: 1, SN: 1, Event: EvRX, PType: PTBeacon, RHL: 1},
		{At: ms(2), Node: 9, Src: 4, SN: 2, Event: EvCapture, PType: PTGeoBroadcast, RHL: 9},
		{At: ms(3), Node: 9, Src: 4, SN: 2, Event: EvReplay, PType: PTGeoBroadcast, RHL: 1},
		{At: ms(4), Node: 7, Peer: 8, Event: EvUnicastLoss},
	}
	a := Analyze(recs)
	if len(a.Chains) != 0 {
		t.Errorf("got %d chains from non-chain records", len(a.Chains))
	}
	if v := a.Violations(); len(v) > 0 {
		t.Errorf("unexpected violations: %v", v)
	}
	if a.Records != len(recs) {
		t.Errorf("Records = %d, want %d", a.Records, len(recs))
	}
}

// TestAnalyzeChainsSorted: output order is (Src, SN) ascending regardless
// of record order.
func TestAnalyzeChainsSorted(t *testing.T) {
	recs := []Record{
		{At: ms(0), Node: 9, Src: 9, SN: 2, Event: EvOriginate, PType: PTGeoBroadcast, RHL: 10},
		{At: ms(0), Node: 9, Src: 9, SN: 2, Event: EvTX, Kind: KindCBFSource, PType: PTGeoBroadcast, RHL: 9},
		{At: ms(0), Node: 1, Src: 1, SN: 5, Event: EvOriginate, PType: PTGeoBroadcast, RHL: 10},
		{At: ms(0), Node: 1, Src: 1, SN: 5, Event: EvTX, Kind: KindCBFSource, PType: PTGeoBroadcast, RHL: 9},
		{At: ms(0), Node: 1, Src: 1, SN: 4, Event: EvOriginate, PType: PTGeoBroadcast, RHL: 10},
		{At: ms(0), Node: 1, Src: 1, SN: 4, Event: EvTX, Kind: KindCBFSource, PType: PTGeoBroadcast, RHL: 9},
	}
	a := Analyze(recs)
	want := []ChainKey{{1, 4}, {1, 5}, {9, 2}}
	if len(a.Chains) != len(want) {
		t.Fatalf("got %d chains, want %d", len(a.Chains), len(want))
	}
	for i, c := range a.Chains {
		if c.Key != want[i] {
			t.Errorf("chain %d key = %+v, want %+v", i, c.Key, want[i])
		}
	}
}
