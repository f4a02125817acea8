package radio

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/sim"
)

// The medium benchmarks model the paper's densest deployments: vehicles
// 30 m apart along the road axis with the DSRC NLoS-median range
// (486 m), so each transmission reaches ~32 receivers regardless of how
// many nodes share the medium. A linear receiver scan costs O(N) per
// frame; the spatial index should keep the cost proportional to the
// in-range population only.

type nopReceiver struct{}

func (nopReceiver) Deliver(Frame)  {}
func (nopReceiver) Overhear(Frame) {}

const (
	benchSpacing = 30.0
	benchRange   = 486.0 // DSRC NLoS median, the vehicles' default
)

// benchMedium lays out n nodes along the road axis and returns the
// middle node as the transmitter. Nodes attach in a seeded shuffled
// order, as vehicles join a real road, so attach sequence and road
// position are uncorrelated; then three rounds of motion, each followed
// by SyncPositions, move nodes between grid cells. Each round moves a
// node at most 2·benchSpacing, so the transmitter's up-road neighbor
// stays in range.
func benchMedium(b *testing.B, n int, promiscuousEvery int) (*sim.Engine, *Medium, *Antenna) {
	b.Helper()
	e := sim.NewEngine()
	m := NewMedium(e, Config{})
	rng := rand.New(rand.NewPCG(uint64(n), 0xbe7c4))
	pos := make([]geo.Point, n)
	var tx *Antenna
	for _, i := range rng.Perm(n) {
		pos[i] = geo.Pt(float64(i)*benchSpacing, 0)
		promisc := promiscuousEvery > 0 && i%promiscuousEvery == 0
		a := m.Attach(NodeID(i+1), benchRange, func() geo.Point { return pos[i] }, nopReceiver{}, promisc)
		if i == n/2 {
			tx = a
		}
	}
	for round := 0; round < 3; round++ {
		for i := range pos {
			pos[i].X += (rng.Float64()*2 - 1) * 2 * benchSpacing
		}
		m.SyncPositions()
	}
	return e, m, tx
}

// drive sends one frame per iteration and drains its delivery, advancing
// simulated time past the medium latency each round.
func drive(b *testing.B, e *sim.Engine, m *Medium, tx *Antenna, to NodeID) {
	b.Helper()
	payload := []byte("benchmark-frame")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SendPooled(tx, to, append(m.GrabPayload(), payload...))
		e.Run(e.Now() + 2*Latency)
	}
}

func BenchmarkMediumBroadcast(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e, m, tx := benchMedium(b, n, 0)
			drive(b, e, m, tx, BroadcastID)
		})
	}
}

// BenchmarkMediumBroadcastWideCells reproduces the geometry of the Fig. 7a
// atk_mL arm: 486 m vehicles 30 m apart on each lane of a 4 km road with
// two lanes per direction, and a 1,283 m attacker whose attach grows the
// grid cells to its range. A vehicle's query then spans about 3.8 km of
// road, so most candidates are rejected on distance.
func BenchmarkMediumBroadcastWideCells(b *testing.B) {
	e := sim.NewEngine()
	m := NewMedium(e, Config{})
	const length, lanes = 4000.0, 4
	id := NodeID(1)
	var tx *Antenna
	for lane := 0; lane < lanes; lane++ {
		y := 2.5 + 5*float64(lane-lanes/2)
		for x := benchSpacing * float64(lane) / lanes; x <= length; x += benchSpacing {
			a := m.Attach(id, benchRange, staticPos(geo.Pt(x, y)), nopReceiver{}, false)
			if tx == nil && x >= 1700 {
				tx = a
			}
			id++
		}
	}
	m.Attach(id, 1283, staticPos(geo.Pt(length/2, 0)), nopReceiver{}, true)
	// One frame grows the pooled receiver slices before timing.
	m.SendPooled(tx, BroadcastID, m.GrabPayload())
	e.Run(e.Now() + 2*Latency)
	drive(b, e, m, tx, BroadcastID)
}

func BenchmarkMediumUnicast(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e, m, tx := benchMedium(b, n, 0)
			// The next node up the road, always in range.
			drive(b, e, m, tx, tx.id+1)
		})
	}
}

func BenchmarkMediumPromiscuous(b *testing.B) {
	// Unicast with every 10th node promiscuous: the sniffer-heavy case
	// where most deliveries are Overhear callbacks.
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e, m, tx := benchMedium(b, n, 10)
			drive(b, e, m, tx, tx.id+1)
		})
	}
}

func BenchmarkMediumChurn(b *testing.B) {
	// Attach/detach cost under the index: one join and one leave per
	// frame, as the spawner and road exits do at steady state.
	e := sim.NewEngine()
	m := NewMedium(e, Config{})
	const n = 500
	for i := 0; i < n; i++ {
		p := geo.Pt(float64(i)*benchSpacing, 0)
		m.Attach(NodeID(i+1), benchRange, func() geo.Point { return p }, nopReceiver{}, false)
	}
	tx := m.nodes[NodeID(n/2)]
	payload := []byte("churn")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := NodeID(n + i + 1)
		p := geo.Pt(float64(i%n)*benchSpacing, 5)
		m.Attach(id, benchRange, func() geo.Point { return p }, nopReceiver{}, false)
		m.SendPooled(tx, BroadcastID, append(m.GrabPayload(), payload...))
		m.Detach(id)
		e.Run(e.Now() + 2*Latency)
	}
}
