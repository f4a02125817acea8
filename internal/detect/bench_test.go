package detect

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/trace"
)

// BenchmarkDetectObserve measures the detector sink's per-claim cost on
// the benign steady state — the price every traced reception pays when
// detection is enabled. The records mimic a neighbor's beacons at the
// default cadence as the router records them: fresh timestamps,
// plausible motion, no verdicts.
func BenchmarkDetectObserve(b *testing.B) {
	d := New(Config{})
	r := trace.Record{
		Node: 1, Peer: 7, Src: 7, Event: trace.EvRX, PType: trace.PTBeacon, RHL: 1,
		HasClaim: true, ClaimPos: geo.Pt(100, 0),
		RxPos: geo.Pt(0, 0), RxRange: 500,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.At += 2250 * time.Millisecond
		r.ClaimTS = r.At
		r.ClaimPos.X += 30 // ~13 m/s: well inside the speed envelope
		r.RxPos.X += 30    // receiver travels alongside, staying in range
		d.Record(r)
	}
	if d.Summary().Verdicts != 0 {
		b.Fatal("benign benchmark stream produced verdicts")
	}
}
