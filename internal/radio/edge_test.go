package radio

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/sim"
)

func softMedium(t *testing.T, seed uint64) (*sim.Engine, *Medium) {
	t.Helper()
	e := sim.NewEngine()
	return e, NewMedium(e, Config{EdgeFactor: SoftEdgeFactor, Seed: seed})
}

func TestHardDiskIsDefault(t *testing.T) {
	e := sim.NewEngine()
	m := NewMedium(e, Config{})
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(100.01, 0)), &rx, false)
	for i := 0; i < 50; i++ {
		m.SendPooled(tx, BroadcastID, []byte{byte(i)})
	}
	e.Run(time.Second)
	if len(rx.delivered) != 0 {
		t.Fatalf("default medium delivered %d frames past the hard boundary", len(rx.delivered))
	}
}

func TestSoftEdgeWithinRangeAlwaysDelivers(t *testing.T) {
	e, m := softMedium(t, 1)
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(99, 0)), &rx, false)
	for i := 0; i < 20; i++ {
		m.SendPooled(tx, BroadcastID, []byte{byte(i)})
	}
	e.Run(time.Second)
	if len(rx.delivered) != 20 {
		t.Fatalf("in-range delivery not deterministic: %d/20", len(rx.delivered))
	}
}

func TestSoftEdgeBeyondEdgeNeverDelivers(t *testing.T) {
	e, m := softMedium(t, 1)
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(116, 0)), &rx, false) // beyond 1.15*100
	for i := 0; i < 50; i++ {
		m.SendPooled(tx, BroadcastID, []byte{byte(i)})
	}
	e.Run(time.Second)
	if len(rx.delivered) != 0 {
		t.Fatalf("delivery beyond the soft edge: %d frames", len(rx.delivered))
	}
}

func TestSoftEdgeZoneIsProbabilistic(t *testing.T) {
	// In the middle of the edge zone roughly half the links are up. Links
	// are (from, to, bucket)-coherent, so sample many distinct receivers.
	e, m := softMedium(t, 7)
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	const n = 200
	rxs := make([]*collector, n)
	for i := 0; i < n; i++ {
		rxs[i] = &collector{}
		m.Attach(NodeID(i+2), 100, staticPos(geo.Pt(107.5, float64(i)/1e6)), rxs[i], false)
	}
	m.SendPooled(tx, BroadcastID, []byte("probe"))
	e.Run(time.Second)
	got := 0
	for _, rx := range rxs {
		got += len(rx.delivered)
	}
	if got < n/4 || got > 3*n/4 {
		t.Fatalf("mid-edge delivery count = %d/%d, want ~half", got, n)
	}
}

func TestSoftEdgeLinkCoherence(t *testing.T) {
	// Within one coherence bucket the same link gives the same outcome
	// for every frame.
	e, m := softMedium(t, 3)
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(107, 0)), &rx, false)
	for i := 0; i < 30; i++ {
		m.SendPooled(tx, BroadcastID, []byte{byte(i)})
	}
	e.Run(time.Second) // all within the first 4 s bucket
	if got := len(rx.delivered); got != 0 && got != 30 {
		t.Fatalf("edge outcomes within one bucket are not coherent: %d/30", got)
	}
}

func TestSoftEdgeDeterministicAcrossMedia(t *testing.T) {
	// Two media with the same seed make identical edge decisions — the
	// property that keeps A/B experiment arms paired.
	outcome := func() int {
		e, m := softMedium(t, 99)
		var rx collector
		tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
		m.Attach(2, 100, staticPos(geo.Pt(108, 0)), &rx, false)
		for i := 0; i < 10; i++ {
			m.SendPooled(tx, BroadcastID, []byte{1, 2, 3})
		}
		e.Run(time.Second)
		return len(rx.delivered)
	}
	if a, b := outcome(), outcome(); a != b {
		t.Fatalf("same-seed media disagree: %d vs %d", a, b)
	}
}

func TestEdgeFactorBelowOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for edge factor < 1")
		}
	}()
	NewMedium(sim.NewEngine(), Config{EdgeFactor: 0.5})
}

// TestQuickAcceptAgreesWithHypot pins the property the medium's Hypot-free
// accept relies on: whenever inDisk accepts a pair's axis gaps, their
// Hypot is within the limit, where receives accepts without drawing the
// edge hash. It is the sibling of geo.TestDistanceNeverBelowAxisGap. The
// pairs are random road-scale ones plus adversarial ones: on either axis
// at exactly the limit and one ulp either side, 45° diagonals at the
// limit, and sums of the gaps at the accept's threshold and an ulp past
// it. Each runs under both edge factors, with and without an extended
// receive range, and hears must decide each as receives over the Hypot.
func TestQuickAcceptAgreesWithHypot(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	fired := 0
	for _, ef := range []float64{DefaultEdgeFactor, SoftEdgeFactor} {
		for _, rxRange := range []float64{0, 600} {
			m := NewMedium(sim.NewEngine(), Config{EdgeFactor: ef, Seed: 1})
			tx := &Antenna{id: 1, rangeM: benchRange}
			rx := &Antenna{id: 2, rxRange: rxRange}
			limit := max(tx.rangeM, rx.rxRange)
			check := func(p, q geo.Point) {
				t.Helper()
				tx.loc, rx.loc = p, q
				d := p.DistanceTo(q)
				if inDisk(math.Abs(p.X-q.X), math.Abs(p.Y-q.Y), limit) {
					fired++
					if d > limit {
						t.Fatalf("limit %v: quick accept of %v -> %v at distance %v", limit, p, q, d)
					}
				}
				if got, want := m.hears(tx, rx, 0), m.receives(d, limit, tx.id, rx.id, 0); got != want {
					t.Fatalf("limit %v, edge factor %v: hears(%v -> %v) = %v, receives at %v says %v", limit, ef, p, q, got, d, want)
				}
			}
			// gaps places the pair at axis gaps (gx, gy) from an origin.
			gaps := func(o geo.Point, gx, gy float64) {
				t.Helper()
				check(o, geo.Pt(o.X+gx, o.Y+gy))
				check(geo.Pt(o.X+gx, o.Y-gy), o)
			}
			origins := []geo.Point{geo.Pt(0, 0), geo.Pt(1234.5, 7.5), geo.Pt(-3999.75, -2.5)}
			diag := limit / math.Sqrt2
			thresh := limit * (1 - 1e-12)
			for _, o := range origins {
				for _, g := range []float64{math.Nextafter(limit, 0), limit, math.Nextafter(limit, math.Inf(1))} {
					gaps(o, g, 0)
					gaps(o, 0, g)
				}
				for _, g := range []float64{math.Nextafter(diag, 0), diag, math.Nextafter(diag, math.Inf(1))} {
					gaps(o, g, g)
				}
				for _, gy := range []float64{0, 1e-9, 0.5, 5, 15, limit / 2} {
					gx := thresh - gy
					gaps(o, gx, gy)
					gaps(o, math.Nextafter(gx, math.Inf(1)), gy)
					gaps(o, gy, gx)
				}
			}
			for i := 0; i < 50000; i++ {
				o := geo.Pt(rng.Float64()*4000, rng.Float64()*20-10)
				switch i % 3 {
				case 0: // anywhere within twice the limit
					gaps(o, (rng.Float64()*2-1)*2*limit, (rng.Float64()*2-1)*2*limit)
				case 1: // at the threshold of the sum
					gy := rng.Float64() * 20
					gaps(o, thresh-gy+float64(rng.IntN(5)-2)*1e-13*limit, gy)
				default: // on the road axis, near the limit
					gaps(o, limit+float64(rng.IntN(9)-4)*1e-13*limit, rng.Float64()*1e-3)
				}
			}
		}
	}
	if fired < 10000 {
		t.Fatalf("the quick accept fired %d times: the sweep is vacuous", fired)
	}
}
