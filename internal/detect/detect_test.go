package detect

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/trace"
)

const attacker = 99

func newTestDetector() *Detector {
	return New(Config{Truth: func(s uint64) bool { return s == attacker }})
}

// claim builds the rx record of a plausible single-hop claim at node 1:
// a beacon from source 7 co-located with the receiver, PV stamped at
// arrival, heard from link sender from.
func claim(at time.Duration, from uint64) trace.Record {
	return trace.Record{
		At: at, Node: 1, Peer: from, Src: 7, Event: trace.EvRX, PType: trace.PTBeacon, RHL: 1,
		HasClaim: true, ClaimPos: geo.Pt(100, 0), ClaimTS: at,
		RxPos: geo.Pt(0, 0), RxRange: 500,
	}
}

// dataClaim builds the rx record of a multi-hop claim at node 1 for
// source 7: a forwarded GBC whose PV entered the LocT.
func dataClaim(at, ts time.Duration, from uint64, pos geo.Point) trace.Record {
	return trace.Record{
		At: at, Node: 1, Peer: from, Src: 7, Event: trace.EvRX, PType: trace.PTGeoBroadcast, RHL: 20,
		HasClaim: true, ClaimPos: pos, ClaimTS: ts,
		RxPos: geo.Pt(0, 0), RxRange: 500,
	}
}

// echo builds node 1's own_echo drop of its own packet, originated
// elapsed before at with the default 32-hop budget, hops of it consumed.
func echo(at time.Duration, from uint64, beacon bool, elapsed time.Duration, hops int) trace.Record {
	pt := trace.PTGeoBroadcast
	if beacon {
		pt = trace.PTBeacon
	}
	return trace.Record{
		At: at, Node: 1, Peer: from, Src: 1, Event: trace.EvDrop, Reason: trace.ReasonOwnEcho,
		PType: pt, InitRHL: 32, RHL: uint8(32 - hops), ClaimTS: at - elapsed,
	}
}

func checkCount(d *Detector, c Check) uint64 {
	s := d.Summary()
	cs := s.Checks[c.String()]
	return cs.TruePositives + cs.FalsePositives
}

func TestMonitorBeaconGapThreshold(t *testing.T) {
	d := newTestDetector()
	d.Record(claim(0, attacker))
	d.Record(claim(2250*time.Millisecond, attacker)) // benign minimum gap
	if got := checkCount(d, CheckBeacon); got != 0 {
		t.Fatalf("benign 2.25s gap flagged %d times", got)
	}
	d.Record(claim(3150*time.Millisecond, attacker)) // 900ms gap, below 1s floor
	if got := checkCount(d, CheckBeacon); got != 1 {
		t.Fatalf("sub-floor gap flagged %d times, want 1", got)
	}
	if !d.Summary().Detected {
		t.Error("labeled suspect did not mark the run detected")
	}
}

func TestMonitorRangeThreshold(t *testing.T) {
	d := newTestDetector()
	c := claim(0, attacker)
	c.ClaimPos = geo.Pt(799, 0) // within 1.6 x 500m
	d.Record(c)
	if got := checkCount(d, CheckPosition); got != 0 {
		t.Fatalf("in-envelope neighbor claim flagged %d times", got)
	}
	c = claim(time.Hour, attacker)
	c.ClaimPos = geo.Pt(801, 0) // beyond 1.6 x 500m
	d.Record(c)
	if got := checkCount(d, CheckPosition); got != 1 {
		t.Fatalf("out-of-range neighbor claim flagged %d times, want 1", got)
	}
}

func TestMonitorStaleTimestampThreshold(t *testing.T) {
	d := newTestDetector()
	d.Record(claim(0, 7))
	c := claim(1500*time.Millisecond, attacker)
	c.ClaimTS = 0 // replayed PV: timestamp not newer than the last one
	d.Record(c)
	if got := checkCount(d, CheckReplay); got != 1 {
		t.Fatalf("stale-timestamp claim flagged %d times, want 1", got)
	}
	// A strictly newer PV from the same source is fine.
	d.Record(claim(3200*time.Millisecond, 7))
	if got := checkCount(d, CheckReplay); got != 1 {
		t.Fatalf("fresh claim changed replay count to %d", got)
	}
}

func TestMonitorImpliedSpeedThreshold(t *testing.T) {
	d := newTestDetector()
	d.Record(dataClaim(0, 0, 7, geo.Pt(0, 0)))
	// 74m in 1s: 70 m/s ceiling + 5m PosError allowance absorbs it.
	d.Record(dataClaim(time.Second, time.Second, 7, geo.Pt(74, 0)))
	if got := checkCount(d, CheckPosition); got != 0 {
		t.Fatalf("claim inside the speed envelope flagged %d times", got)
	}
	// 150m in a further second exceeds 70 m/s + 5m.
	d.Record(dataClaim(2*time.Second, 2*time.Second, attacker, geo.Pt(224, 0)))
	if got := checkCount(d, CheckPosition); got != 1 {
		t.Fatalf("teleporting claim flagged %d times, want 1", got)
	}
}

func TestMonitorSpeedAllowsQuantizedSampling(t *testing.T) {
	// Two claims 10ms apart showing one mobility tick's displacement
	// (~1.5m): enormous implied speed, but within the PosError allowance.
	// This is the fig9a benign pattern that must never flag.
	d := newTestDetector()
	d.Record(dataClaim(0, 0, 7, geo.Pt(3144.4, 2.5)))
	d.Record(dataClaim(10*time.Millisecond, 10*time.Millisecond, 7, geo.Pt(3145.9, 2.5)))
	if got := d.Summary().Verdicts; got != 0 {
		t.Fatalf("quantized position sampling produced %d verdicts", got)
	}
}

func TestMonitorChurnThreshold(t *testing.T) {
	d := newTestDetector()
	// Two claims in the 4s window is the honest maximum; the third flags.
	for i, at := range []time.Duration{0, 1200 * time.Millisecond, 2400 * time.Millisecond} {
		c := claim(at, attacker)
		d.Record(c)
		got := checkCount(d, CheckChurn)
		if i < 2 && got != 0 {
			t.Fatalf("claim %d flagged churn early (%d)", i, got)
		}
		if i == 2 && got != 1 {
			t.Fatalf("third claim in window flagged churn %d times, want 1", got)
		}
	}
	// Once the window slides past the oldest arrivals, cadence resets.
	d2 := newTestDetector()
	for _, at := range []time.Duration{0, 2250 * time.Millisecond, 4500 * time.Millisecond, 6750 * time.Millisecond} {
		d2.Record(claim(at, 7))
	}
	if got := checkCount(d2, CheckChurn); got != 0 {
		t.Fatalf("benign 2.25s beacon cadence flagged churn %d times", got)
	}
}

// TestMonitorChurnBurstPastInlineWindow: a burst of six claims inside
// the window outgrows the state's four inline arrival slots, and every
// claim past ChurnMax still flags with the whole window counted.
func TestMonitorChurnBurstPastInlineWindow(t *testing.T) {
	var evidence []string
	d := New(Config{Sink: func(v Verdict) {
		if v.Check == CheckChurn {
			evidence = append(evidence, v.Evidence)
		}
	}})
	for i := 0; i < 6; i++ {
		d.Record(claim(time.Duration(i)*500*time.Millisecond, attacker))
	}
	if len(evidence) != 4 {
		t.Fatalf("six claims in the window flagged churn %d times, want 4", len(evidence))
	}
	for i, ev := range evidence {
		want := fmt.Sprintf("%d neighbor claims for 7 inside %v (max %d)", i+3, ChurnWindow, ChurnMax)
		if ev != want {
			t.Fatalf("churn verdict %d: evidence %q, want %q", i, ev, want)
		}
	}
}

// TestSrcStateSizeClass pins a source's monitor state to the
// allocator's 96-byte class: it holds four inline arrival slots, and
// one more word would move every state into the 112-byte class.
func TestSrcStateSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(srcState{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(srcState{}) = %d, want 96 (the 96-byte class)", got)
	}
}

func TestMonitorEchoThresholds(t *testing.T) {
	d := newTestDetector()
	// Own beacon echoed: always a verdict regardless of timing.
	d.Record(echo(time.Second, attacker, true, time.Hour, 0))
	if got := checkCount(d, CheckReplay); got != 1 {
		t.Fatalf("own-beacon echo flagged %d times, want 1", got)
	}
	// Data packet back after 2 plausible hops: >= 2 x 500µs elapsed.
	d.Record(echo(2*time.Second, 7, false, 1100*time.Microsecond, 2))
	if got := checkCount(d, CheckReplay); got != 1 {
		t.Fatalf("plausible 2-hop echo flagged (count %d)", got)
	}
	// Same hop count squeezed under the per-hop floor: replay.
	d.Record(echo(3*time.Second, attacker, false, 900*time.Microsecond, 2))
	if got := checkCount(d, CheckReplay); got != 2 {
		t.Fatalf("implausible 2-hop echo flagged %d times, want 2", got)
	}
	// Zero consumed hops carries no timing evidence.
	d.Record(echo(4*time.Second, 7, false, 0, 0))
	if got := checkCount(d, CheckReplay); got != 2 {
		t.Fatalf("0-hop echo flagged (count %d)", got)
	}
}

func TestNilDetector(t *testing.T) {
	var d *Detector
	if d.Summary() != nil {
		t.Error("nil detector returned a summary")
	}
}

// TestClaimlessRecordsSkipPositionChecks: an rx record without a claim,
// as decoded from JSONL, still feeds the cadence checks of single-hop
// packets, but never the position and timestamp checks, and a multi-hop
// record without a claim is ignored.
func TestClaimlessRecordsSkipPositionChecks(t *testing.T) {
	d := newTestDetector()
	for _, at := range []time.Duration{0, 500 * time.Millisecond, 900 * time.Millisecond} {
		c := claim(at, attacker)
		c.HasClaim = false
		c.ClaimPos = geo.Pt(5000, 0) // out of range, ignored without a claim
		d.Record(c)
		data := dataClaim(at, at, attacker, geo.Pt(5000, 0))
		data.HasClaim = false
		d.Record(data)
	}
	s := d.Summary()
	if got := s.Checks[CheckBeacon.String()].TruePositives; got != 2 {
		t.Errorf("beacon check = %d, want 2", got)
	}
	if got := s.Checks[CheckChurn.String()].TruePositives; got != 1 {
		t.Errorf("churn check = %d, want 1", got)
	}
	if got := checkCount(d, CheckPosition) + checkCount(d, CheckReplay); got != 0 {
		t.Errorf("claimless records ran %d position/replay verdicts", got)
	}
	// An own echo of a data packet with no hop budget carries no evidence.
	e := echo(time.Second, attacker, false, 0, 2)
	e.InitRHL, e.ClaimTS = 0, 0
	d.Record(e)
	if got := checkCount(d, CheckReplay); got != 0 {
		t.Errorf("echo without hop budget flagged %d times", got)
	}
}

func TestDetectorSinkAndLatency(t *testing.T) {
	var got []Verdict
	d := New(Config{
		Truth: func(s uint64) bool { return s == attacker },
		Sink:  func(v Verdict) { got = append(got, v) },
	})
	d.Record(echo(3*time.Second, 5, true, 0, 0))        // false alarm
	d.Record(echo(7*time.Second, attacker, true, 0, 0)) // first true
	s := d.Summary()
	if !s.Detected || s.LatencySeconds != 7 {
		t.Errorf("latency = %v detected = %v, want 7s detected", s.LatencySeconds, s.Detected)
	}
	if len(got) != 2 {
		t.Fatalf("sink saw %d verdicts, want 2", len(got))
	}
	if got[0].True || !got[1].True {
		t.Errorf("ground-truth labels wrong: %+v", got)
	}
	if got[0].Evidence == "" || got[0].CheckStr != "replay_recency" {
		t.Errorf("sink verdict missing evidence/check: %+v", got[0])
	}
	if s.Checks["replay_recency"].FalsePositives != 1 || s.Checks["replay_recency"].TruePositives != 1 {
		t.Errorf("check stats wrong: %+v", s.Checks)
	}
}

func TestFold(t *testing.T) {
	var f Fold
	f.Add(&Summary{Verdicts: 10, Detected: true, LatencySeconds: 2,
		Checks: map[string]CheckStats{"replay_recency": {TruePositives: 9, FalsePositives: 1}}})
	f.Add(&Summary{Verdicts: 4, Detected: true, LatencySeconds: 4,
		Checks: map[string]CheckStats{"loct_churn": {TruePositives: 4}}})
	f.Add(&Summary{}) // attack missed this run
	f.Add(nil)        // detection off
	got := f.Result()
	if got.Runs != 4 || got.DetectedRuns != 2 || got.Recall != 0.5 {
		t.Errorf("fold counts wrong: %+v", got)
	}
	if got.MeanLatencySeconds != 3 {
		t.Errorf("mean latency = %v, want 3", got.MeanLatencySeconds)
	}
	if got.Verdicts != 14 || got.FalseAlarmRuns != 1 || got.FalseAlarmRate != 0.25 {
		t.Errorf("fold verdict tallies wrong: %+v", got)
	}
	if p := got.Checks["replay_recency"].Precision; p != 0.9 {
		t.Errorf("replay precision = %v, want 0.9", p)
	}
	if p := got.Checks["loct_churn"].Precision; p != 1 {
		t.Errorf("churn precision = %v, want 1", p)
	}
}

func TestReplayOffline(t *testing.T) {
	cfg := Config{Truth: func(s uint64) bool { return s == attacker }}
	recs := []trace.Record{
		// Node 1's own TX of packet (src=1, sn=5) with initial RHL 32.
		{At: time.Second, Node: 1, Src: 1, SN: 5, Event: trace.EvTX, PType: trace.PTGeoBroadcast, RHL: 32},
		// Benign beacon cadence at node 2 from source 3.
		{At: 0, Node: 2, Peer: 3, Src: 3, Event: trace.EvRX, PType: trace.PTBeacon},
		{At: 2250 * time.Millisecond, Node: 2, Peer: 3, Src: 3, Event: trace.EvRX, PType: trace.PTBeacon},
		// Replayed copy 800µs later: beacon-gap violation, and the third
		// arrival inside the 4s window also trips the churn budget.
		{At: 2250*time.Millisecond + 800*time.Microsecond, Node: 2, Peer: attacker, Src: 3, Event: trace.EvRX, PType: trace.PTBeacon},
		// Own packet back at node 1 claiming 31 hops in 1.3ms.
		{At: time.Second + 1300*time.Microsecond, Node: 1, Peer: attacker, Src: 1, SN: 5,
			Event: trace.EvDrop, Reason: trace.ReasonOwnEcho, PType: trace.PTGeoBroadcast, RHL: 1},
		// Own beacon back at node 1: always flagged.
		{At: 2 * time.Second, Node: 1, Peer: attacker, Src: 1, Event: trace.EvDrop,
			Reason: trace.ReasonOwnEcho, PType: trace.PTBeacon},
	}
	d := Replay(recs, cfg)
	s := d.Summary()
	if !s.Detected {
		t.Fatalf("offline replay missed the attack: %+v", s)
	}
	if got := s.Checks["beacon_interarrival"]; got.TruePositives != 1 || got.FalsePositives != 0 {
		t.Errorf("beacon check = %+v, want 1 tp", got)
	}
	if got := s.Checks["replay_recency"]; got.TruePositives != 2 || got.FalsePositives != 0 {
		t.Errorf("replay check = %+v, want 2 tp", got)
	}
	if got := s.Checks["loct_churn"]; got.TruePositives != 1 || got.FalsePositives != 0 {
		t.Errorf("churn check = %+v, want 1 tp", got)
	}
	if s.Verdicts != 4 {
		t.Errorf("verdicts = %d, want 4", s.Verdicts)
	}
}
