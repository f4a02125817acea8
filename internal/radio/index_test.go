package radio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/sim"
)

// These tests pin down the spatial index's contract: the receiver set,
// stats counters, and delivery order must match what the historical
// linear attach-order scan produced, under node churn and motion.
// TestIndexMatchesLinearScanOracle checks that directly against a
// brute-force reference; the rest pin individual cases.

func TestUnicastTargetDetachedInFlightCountsLost(t *testing.T) {
	e, m := newTestMedium(t)
	var target collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(50, 0)), &target, false)

	m.SendPooled(tx, 2, []byte("pkt"))
	m.Detach(2) // the target leaves while the frame is in flight
	e.Run(time.Second)

	if len(target.delivered) != 0 {
		t.Fatal("detached target must not receive the in-flight frame")
	}
	st := m.Stats()
	if st.Delivered != 0 {
		t.Errorf("Delivered = %d, want 0: the frame never reached anyone", st.Delivered)
	}
	if st.UnicastLost != 1 {
		t.Errorf("UnicastLost = %d, want 1: a frame whose target vanished in flight is lost", st.UnicastLost)
	}
}

func TestChurnDuringInFlightFrame(t *testing.T) {
	// Attach, detach and move nodes between a send and its delivery: the
	// receiver set stays fixed at send time, minus nodes detached before
	// the latency elapses.
	e, m := newTestMedium(t)
	var stays, leaves, late, mover collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(10, 0)), &stays, false)
	m.Attach(3, 100, staticPos(geo.Pt(20, 0)), &leaves, false)
	moverPos := geo.Pt(30, 0)
	m.Attach(4, 100, func() geo.Point { return moverPos }, &mover, false)

	m.SendPooled(tx, BroadcastID, []byte("frame"))
	// Churn inside the latency window:
	m.Detach(3)
	m.Attach(5, 100, staticPos(geo.Pt(15, 0)), &late, false) // joined after send
	moverPos = geo.Pt(5000, 0)                               // teleports away
	m.SyncPositions()
	e.Run(time.Second)

	if len(stays.delivered) != 1 {
		t.Errorf("staying node got %d frames, want 1", len(stays.delivered))
	}
	if len(leaves.delivered) != 0 {
		t.Error("node detached in flight must not receive")
	}
	if len(late.delivered) != 0 {
		t.Error("node attached after send must not receive")
	}
	if len(mover.delivered) != 1 {
		t.Error("receiver set is fixed at send time; the mover was in range then")
	}
	st := m.Stats()
	if st.Transmitted != 1 || st.Delivered != 2 {
		t.Errorf("stats = %+v, want Transmitted 1, Delivered 2", st)
	}
}

// scriptedRun drives one deterministic churn scenario and returns a
// delivery log. Used to assert same-seed reproducibility.
func scriptedRun(seed uint64) string {
	e := sim.NewEngine()
	m := NewMedium(e, Config{EdgeFactor: SoftEdgeFactor, Seed: seed})
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	log := ""
	type logRecv struct {
		id  NodeID
		log *string
	}
	deliver := func(r logRecv, f Frame) {
		*r.log += fmt.Sprintf("%d<-%d@%v;", r.id, f.From, f.TxTime)
	}
	recvs := make(map[NodeID]*loggingReceiver)
	attach := func(id NodeID, x float64) *Antenna {
		r := &loggingReceiver{fn: func(f Frame) { deliver(logRecv{id, &log}, f) }}
		recvs[id] = r
		pos := geo.Pt(x, 0)
		return m.Attach(id, 120, func() geo.Point { return pos }, r, false)
	}
	antennas := make([]*Antenna, 0, 40)
	for i := 0; i < 40; i++ {
		antennas = append(antennas, attach(NodeID(i+1), float64(i)*25))
	}
	// Beacon-ish workload with churn: every 10 ms a node transmits; nodes
	// leave and join on a fixed schedule drawn from rng.
	for k := 0; k < 50; k++ {
		k := k
		e.Schedule(time.Duration(k*10)*time.Millisecond, "tx", func() {
			a := antennas[rng.IntN(len(antennas))]
			if !a.removed {
				m.SendPooled(a, BroadcastID, []byte{byte(k)})
			}
			if k%7 == 3 {
				m.Detach(NodeID(k))
			}
			if k%11 == 5 {
				antennas = append(antennas, attach(NodeID(100+k), float64(k)*17))
			}
		})
	}
	e.Run(time.Second)
	return log
}

type loggingReceiver struct{ fn func(Frame) }

func (r *loggingReceiver) Deliver(f Frame) { r.fn(f) }

func TestIndexDeterminismSameSeed(t *testing.T) {
	// Same seed ⇒ byte-identical delivery log, including order, under
	// attach/detach churn and soft-edge decisions.
	a, b := scriptedRun(99), scriptedRun(99)
	if a != b {
		t.Fatalf("same-seed runs diverge:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("scripted run delivered nothing; scenario is vacuous")
	}
}

func TestMovedNodeReceivesAfterSync(t *testing.T) {
	// A node that migrates far across the grid is found at its new cell
	// once SyncPositions runs.
	e, m := newTestMedium(t)
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	pos := geo.Pt(5000, 0) // far out of range at attach time
	m.Attach(2, 100, func() geo.Point { return pos }, &rx, false)

	m.SendPooled(tx, BroadcastID, nil)
	pos = geo.Pt(50, 0) // drives into range
	m.SyncPositions()
	m.SendPooled(tx, BroadcastID, nil)
	e.Run(time.Second)

	if len(rx.delivered) != 1 {
		t.Fatalf("moved node got %d frames, want exactly the post-move one", len(rx.delivered))
	}
}

func TestMediumSeesSyncedPosition(t *testing.T) {
	// The medium sees each antenna where the last Attach or SyncPositions
	// saw it: a node moved without a sync is heard, and sends, from its
	// synced position, and from its new one once SyncPositions runs. A move
	// along Y alone is synced too, and so is an extended receiver, which
	// sits beside the gridded one with the same reach.
	e, m := newTestMedium(t)
	var rx, ext, other collector
	txPos := geo.Pt(0, 0)
	tx := m.Attach(1, 100, func() geo.Point { return txPos }, &collector{}, false)
	rxPos := geo.Pt(90, 0) // in range
	m.Attach(2, 100, func() geo.Point { return rxPos }, &rx, false)
	m.Attach(4, 100, func() geo.Point { return geo.Pt(rxPos.X, rxPos.Y+0.5) }, &ext, false).SetRxRange(100)
	m.Attach(3, 100, staticPos(geo.Pt(-50, 0)), &other, false)

	send := func(tag byte, wantHeard bool) {
		t.Helper()
		n, nExt := len(rx.delivered), len(ext.delivered)
		m.SendPooled(tx, BroadcastID, []byte{tag})
		e.Run(e.Now() + 2*Latency)
		if heard := len(rx.delivered) > n; heard != wantHeard {
			t.Fatalf("frame %q: heard = %v, want %v", tag, heard, wantHeard)
		}
		if heard := len(ext.delivered) > nExt; heard != wantHeard {
			t.Fatalf("frame %q: extended receiver heard = %v, want %v", tag, heard, wantHeard)
		}
	}
	rxPos = geo.Pt(150, 0) // drives out of range, no sync
	send('a', true)
	m.SyncPositions()
	send('b', false)
	rxPos = geo.Pt(60, 0) // back into range, no sync
	send('c', false)
	m.SyncPositions()
	send('d', true)
	rxPos = geo.Pt(60, 95) // out of range along Y alone, no sync
	send('e', true)
	m.SyncPositions()
	send('f', false)

	// The transmitter, too, sends from its synced position.
	txPos = geo.Pt(-300, 0)
	send('g', false)
	if got := other.delivered[len(other.delivered)-1]; got.TxPos != geo.Pt(0, 0) {
		t.Fatalf("unsynced transmitter sent from %v, want its synced (0, 0)", got.TxPos)
	}
	m.SyncPositions()
	send('h', false)
	if n := len(other.delivered); n != 7 {
		t.Fatalf("node 3 got %d frames, want 7: the moved transmitter is out of its range only after the sync", n)
	}
}

func TestSetRxRangeReclassifies(t *testing.T) {
	// Growing rxRange moves a node onto the always-scanned extended list;
	// zeroing it moves it back into the grid.
	e, m := newTestMedium(t)
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	sniffer := m.Attach(2, 100, staticPos(geo.Pt(900, 0)), &rx, false)

	m.SendPooled(tx, BroadcastID, nil) // out of range both ways
	sniffer.SetRxRange(1000)
	m.SendPooled(tx, BroadcastID, nil) // heard via extended sensitivity
	sniffer.SetRxRange(0)
	m.SendPooled(tx, BroadcastID, nil) // deaf again
	e.Run(time.Second)

	if len(rx.delivered) != 1 {
		t.Fatalf("extended receiver got %d frames, want exactly the middle one", len(rx.delivered))
	}
}

func TestCellSizeGrowthRebuckets(t *testing.T) {
	// A long-range node attaching later grows the cell size; previously
	// attached nodes must still be found after the rebucket.
	e, m := newTestMedium(t)
	var near, far collector
	m.Attach(1, 50, staticPos(geo.Pt(0, 0)), &near, false)
	m.Attach(2, 50, staticPos(geo.Pt(1200, 0)), &far, false)
	big := m.Attach(3, 1283, staticPos(geo.Pt(600, 0)), &collector{}, false)

	m.SendPooled(big, BroadcastID, nil)
	e.Run(time.Second)

	if len(near.delivered) != 1 || len(far.delivered) != 1 {
		t.Fatalf("deliveries after rebucket = %d/%d, want 1/1",
			len(near.delivered), len(far.delivered))
	}
}

func TestSetRangeGrowsQueryReach(t *testing.T) {
	// SetRange beyond the original cell size must widen the sender's
	// query so distant receivers are still enumerated.
	e, m := newTestMedium(t)
	var far collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(2500, 0)), &far, false)

	tx.SetRange(3000)
	m.SendPooled(tx, BroadcastID, nil)
	e.Run(time.Second)

	if len(far.delivered) != 1 {
		t.Fatalf("far node got %d frames after SetRange, want 1", len(far.delivered))
	}
}

// unsortedBucket reports a grid bucket out of seq order, if any; the
// merge in collect relies on that order. It checks non-decreasing, not
// increasing, order: the known ghost duplicate (see the oracle) shares
// its antenna's seq.
func unsortedBucket(m *Medium) error {
	for c, bucket := range m.cells {
		for i := 1; i < len(bucket); i++ {
			if bucket[i-1].seq > bucket[i].seq {
				return fmt.Errorf("cell %d holds seq %d before seq %d", c, bucket[i-1].seq, bucket[i].seq)
			}
		}
	}
	return nil
}

// orderLog attaches receivers that append their node ID to one shared
// delivery log.
type orderLog []NodeID

func (l *orderLog) attach(m *Medium, id NodeID, rangeM float64, p geo.Point) *Antenna {
	return m.Attach(id, rangeM, staticPos(p), &loggingReceiver{fn: func(Frame) { *l = append(*l, id) }}, false)
}

func TestExtendedReceiversMergeInAttachOrder(t *testing.T) {
	// The extended list is in reclassify order, not attach order. Each
	// extended receiver must still land between the grid receivers by
	// attach sequence, and a node reclassified back into the grid must
	// rejoin its bucket at its seq position.
	e, m := newTestMedium(t)
	var got orderLog
	tx := got.attach(m, 1, 100, geo.Pt(0, 0))
	got.attach(m, 2, 100, geo.Pt(10, 0))
	far3 := got.attach(m, 3, 100, geo.Pt(900, 0))
	back4 := got.attach(m, 4, 100, geo.Pt(20, 0))
	far5 := got.attach(m, 5, 100, geo.Pt(800, 0))
	got.attach(m, 6, 100, geo.Pt(-30, 0))
	far7 := got.attach(m, 7, 100, geo.Pt(950, 0))
	got.attach(m, 8, 100, geo.Pt(30, 0))

	far7.SetRxRange(1000)
	back4.SetRxRange(1000)
	far3.SetRxRange(1000)
	far5.SetRxRange(1000)
	back4.SetRxRange(0)
	if ids := []NodeID{m.extended[0].id, m.extended[1].id, m.extended[2].id}; !reflect.DeepEqual(ids, []NodeID{7, 3, 5}) {
		t.Fatalf("extended list = %v, want reclassify order [7 3 5]", ids)
	}
	if err := unsortedBucket(m); err != nil {
		t.Fatal(err)
	}

	m.SendPooled(tx, BroadcastID, nil)
	e.Run(time.Second)
	if want := (orderLog{2, 3, 4, 5, 6, 7, 8}); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order %v, want attach order %v", got, want)
	}
}

func TestRegridAfterChurnKeepsAttachOrder(t *testing.T) {
	// Detach swap-removes from Medium.order, so a later regrid (SetRange
	// growing the cell size) rebuckets from a shuffled order. The buckets
	// must come out in seq order, and delivery in attach order.
	e, m := newTestMedium(t)
	var got orderLog
	tx := got.attach(m, 1, 50, geo.Pt(0, 0))
	for id := NodeID(2); id <= 12; id++ {
		got.attach(m, id, 50, geo.Pt(float64(id*37%400), 0))
	}
	m.Detach(2)
	m.Detach(5)
	m.Detach(9)
	tx.SetRange(500)
	if err := unsortedBucket(m); err != nil {
		t.Fatal(err)
	}

	m.SendPooled(tx, BroadcastID, nil)
	e.Run(time.Second)
	if want := (orderLog{3, 4, 6, 7, 8, 10, 11, 12}); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order %v, want attach order %v", got, want)
	}
}

func TestDeliverySliceReuseAcrossFrames(t *testing.T) {
	// Back-to-back frames recycle the pooled receiver slice without
	// cross-contaminating receiver sets.
	e, m := newTestMedium(t)
	var a, b collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(10, 0)), &a, false)
	m.Attach(3, 100, staticPos(geo.Pt(20, 0)), &b, false)

	for i := 0; i < 100; i++ {
		m.SendPooled(tx, BroadcastID, []byte{byte(i)})
		e.Run(e.Now() + 2*Latency)
	}
	if len(a.delivered) != 100 || len(b.delivered) != 100 {
		t.Fatalf("deliveries = %d/%d, want 100/100", len(a.delivered), len(b.delivered))
	}
	for i, f := range a.delivered {
		if int(f.Payload[0]) != i {
			t.Fatalf("frame %d carries payload %d: pooled slices leaked across frames", i, f.Payload[0])
		}
	}
}

// oracleNode is one attachment in the brute-force reference model. A
// detached node that attaches again gets a fresh oracleNode, as it gets
// a fresh Antenna.
type oracleNode struct {
	id        NodeID
	ant       *Antenna
	pos       geo.Point
	rangeM    float64
	rxRange   float64
	promisc   bool
	overhears bool // receiver implements Overhearer
	attached  bool
	extended  bool // static, off-grid (the sniffer)
	// synced mirrors Antenna.loc: the position at the last Attach or
	// SyncPositions, where the medium places, hears and transmits from
	// the node.
	synced geo.Point
}

// oracleRx is the receiver every oracle node attaches with; it logs
// each callback under the frame ID carried in the payload.
type oracleRx struct {
	t    *testing.T
	node *oracleNode
	log  map[uint64][]oracleEvent
}

type oracleEvent struct {
	rx        NodeID
	overheard bool
}

func (r *oracleRx) record(f Frame, overheard bool) {
	id := binary.BigEndian.Uint64(f.Payload)
	if f.Cache == nil {
		r.t.Fatalf("frame %d delivered without a cache", id)
	}
	// The first receiver stamps the cache with the frame ID; every later
	// receiver must see the same stamp, or a pooled transmission was
	// recycled into another frame while this one was still pending.
	if !f.Cache.DecodeDone {
		f.Cache.DecodeDone = true
		f.Cache.Decoded = id
	} else if f.Cache.Decoded != id {
		r.t.Fatalf("frame %d delivered with the cache of frame %v", id, f.Cache.Decoded)
	}
	r.log[id] = append(r.log[id], oracleEvent{rx: r.node.id, overheard: overheard})
}

func (r *oracleRx) Deliver(f Frame) { r.record(f, false) }

// oracleSniffer additionally accepts promiscuous copies.
type oracleSniffer struct{ oracleRx }

func (r *oracleSniffer) Overhear(f Frame) { r.record(f, true) }

// oracleCoverage counts the features one scenario exercised, so the
// test can assert it is not vacuous. preRejected counts enumerated
// candidates whose X gap alone rules them out (the medium's pre-Hypot
// reject); boundary counts enumerated candidates at an X gap of exactly
// the reception limit, where that reject must not fire.
type oracleCoverage struct {
	softEdge, blocked, extended, unicastLost, inFlightDetach, overlapping, overheard, ghost, preRejected, boundary int
}

func (c *oracleCoverage) add(o oracleCoverage) {
	c.softEdge += o.softEdge
	c.blocked += o.blocked
	c.extended += o.extended
	c.unicastLost += o.unicastLost
	c.inFlightDetach += o.inFlightDetach
	c.overlapping += o.overlapping
	c.overheard += o.overheard
	c.ghost += o.ghost
	c.preRejected += o.preRejected
	c.boundary += o.boundary
}

// TestIndexMatchesLinearScanOracle drives the medium through seeded
// random sequences — motion with and without SyncPositions (the oracle
// decides reception from each node's synced position), attach and
// detach churn while frames are in flight, an extended-range sniffer,
// the soft edge, an obstruction, unicast, and frames overlapping in
// flight so pooled transmissions are recycled while others are pending
// — and checks every frame's receiver set, delivery order and the Stats
// counters against a brute-force scan of all attached antennas in
// attach order. It runs the soft edge and the hard disk; the hard-disk
// arm also plants receivers at exactly the transmitter's range on the
// road axis, the boundary the pre-Hypot reject must leave alone.
func TestIndexMatchesLinearScanOracle(t *testing.T) {
	for _, arm := range []struct {
		edgeFactor float64
		exempt     string // coverage the arm cannot produce
	}{
		{SoftEdgeFactor, "boundary"},
		{DefaultEdgeFactor, "softEdge"},
	} {
		var total oracleCoverage
		for seed := uint64(1); seed <= 6; seed++ {
			total.add(runLinearScanOracle(t, seed, arm.edgeFactor))
		}
		v := reflect.ValueOf(total)
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; name != arm.exempt && v.Field(i).Int() == 0 {
				t.Errorf("edge factor %v: scenarios never exercised %s: the oracle is vacuous there (%+v)", arm.edgeFactor, name, total)
			}
		}
	}
}

func runLinearScanOracle(t *testing.T, seed uint64, edgeFactor float64) oracleCoverage {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x0ac1e))
	hill := CircleObstruction{Center: geo.Pt(700, 20), Radius: 12}
	e := sim.NewEngine()
	m := NewMedium(e, Config{EdgeFactor: edgeFactor, Seed: seed, Obstructions: []Obstruction{hill}})
	log := make(map[uint64][]oracleEvent)
	var (
		nodes  []*oracleNode // every attachment, in attach order
		want   Stats
		cov    oracleCoverage
		nextID = NodeID(1)
		frames uint64
		// Known defect, modelled so that any other divergence still
		// fails: an Attach that grows the grid rebuckets m.order after
		// appending the new antenna but before indexing it, so the
		// antenna also lands in cell 0 (its zero loc). That stale entry
		// lasts until the next regrid, and any frame whose query covers
		// cell 0 considers the antenna twice — a duplicate delivery.
		// Fixing it changes the Fig. 7a atk_mL artifacts, so the fix
		// waits for a change that can re-record the benchmark goldens;
		// it then deletes cellSize/ghost here.
		cellSize float64
		ghost    *oracleNode
	)
	attached := func() []*oracleNode {
		var out []*oracleNode
		for _, n := range nodes {
			if n.attached {
				out = append(out, n)
			}
		}
		return out
	}
	attach := func(id NodeID, pos geo.Point, rangeM, rxRange float64, promisc, overhears bool) {
		n := &oracleNode{id: id, pos: pos, rangeM: rangeM, rxRange: rxRange, promisc: promisc,
			overhears: overhears, attached: true, extended: rxRange > 0, synced: pos}
		var recv Receiver = &oracleRx{t: t, node: n, log: log}
		if overhears {
			recv = &oracleSniffer{oracleRx{t: t, node: n, log: log}}
		}
		if r := math.Max(rangeM, minCellSize); r > cellSize {
			cellSize, ghost = r, n
		}
		n.ant = m.Attach(id, rangeM, func() geo.Point { return n.pos }, recv, promisc)
		if rxRange > 0 {
			n.ant.SetRxRange(rxRange)
		}
		nodes = append(nodes, n)
	}
	randomVehicle := func() {
		pos := geo.Pt(rng.Float64()*1500, rng.Float64()*30-15)
		ranges := []float64{80, 120, 150}
		promisc := rng.IntN(5) == 0
		attach(nextID, pos, ranges[rng.IntN(len(ranges))], 0, promisc, promisc && rng.IntN(2) == 0)
		nextID++
	}
	// The pole-mounted sniffer: static, promiscuous, hears far beyond
	// the transmitters' disks.
	attach(999, geo.Pt(750, 0), 100, 600, true, true)
	for i := 0; i < 30; i++ {
		randomVehicle()
	}

	// check runs right after a frame's delivery event (same time, next
	// sequence number) and replays the delivery walk over the send-time
	// candidate list.
	check := func(id uint64, to NodeID, cands []*oracleNode, addressed []bool, targetReached bool) {
		var exp []oracleEvent
		delivered := false
		for i, n := range cands {
			if !n.attached {
				cov.inFlightDetach++
				continue
			}
			switch {
			case addressed[i]:
				want.Delivered++
				exp = append(exp, oracleEvent{rx: n.id})
				if n.id == to {
					delivered = true
				}
			case n.promisc && n.overhears:
				want.Overheard++
				cov.overheard++
				exp = append(exp, oracleEvent{rx: n.id, overheard: true})
			}
		}
		if to != BroadcastID && targetReached && !delivered {
			want.UnicastLost++
			cov.unicastLost++
		}
		if got := log[id]; !reflect.DeepEqual(got, exp) {
			t.Fatalf("seed %d frame %d: deliveries\n got  %v\n want %v", seed, id, got, exp)
		}
		delete(log, id)
		if got := m.Stats(); got != want {
			t.Fatalf("seed %d frame %d: stats %+v, want %+v", seed, id, got, want)
		}
	}
	send := func(from *oracleNode, to NodeID) {
		frames++
		id := frames
		var payload [8]byte
		binary.BigEndian.PutUint64(payload[:], id)
		if m.InFlight() > 0 {
			cov.overlapping++
		}
		// Half the frames carry a recycled marshal buffer, half a fresh
		// copy; either way the medium owns it once sent.
		buf := slices.Clone(payload[:])
		if rng.IntN(2) == 0 {
			buf = append(m.GrabPayload(), payload[:]...)
		}
		if !from.attached {
			// A detached antenna's send is a silent no-op.
			before, inflight := m.Stats(), m.InFlight()
			m.SendPooled(from.ant, to, buf)
			if m.Stats() != before || m.InFlight() != inflight {
				t.Fatalf("seed %d: detached antenna transmitted", seed)
			}
			return
		}
		// Brute force: every attached antenna in attach order.
		var cands []*oracleNode
		var addressed []bool
		targetReached := false
		now := e.Now()
		reach := from.rangeM * edgeFactor
		lo := math.Floor((from.synced.X-reach)/cellSize) - 1
		hi := math.Floor((from.synced.X+reach)/cellSize) + 1
		for _, n := range nodes {
			if !n.attached || n.id == from.id {
				continue
			}
			d := from.synced.DistanceTo(n.synced)
			limit := math.Max(from.rangeM, n.rxRange)
			if c := math.Floor(n.synced.X / cellSize); n.extended || (c >= lo && c <= hi) {
				dx := math.Abs(from.synced.X - n.synced.X)
				if dx > limit && dx >= limit*edgeFactor {
					cov.preRejected++
				}
				if dx == limit {
					cov.boundary++
				}
			}
			if !m.receives(d, limit, from.id, n.id, now) {
				continue
			}
			if d > limit {
				cov.softEdge++
			}
			if hill.Blocks(from.synced, n.synced) {
				cov.blocked++
				continue
			}
			if d > from.rangeM*edgeFactor {
				cov.extended++
			}
			copies := 1
			if n == ghost && lo <= 0 && hi >= 0 {
				copies = 2
				cov.ghost++
			}
			for ; copies > 0; copies-- {
				cands = append(cands, n)
				addressed = append(addressed, to == BroadcastID || to == n.id)
			}
			if to == n.id {
				targetReached = true
			}
		}
		want.Transmitted++
		if to != BroadcastID && !targetReached {
			want.UnicastLost++
			cov.unicastLost++
		}
		m.SendPooled(from.ant, to, buf)
		e.Schedule(Latency, "oracle.check", func() {
			check(id, to, cands, addressed, targetReached)
		})
	}

	// boundaryProbe attaches a transmitter at an integer X and two
	// receivers at exactly its range along the road axis — one on its Y,
	// on the hard disk's edge and received, one a meter off it and just
	// outside — then broadcasts from the transmitter.
	boundaryProbe := func() {
		const r = 120
		x, y := float64(100+rng.IntN(1300)), float64(rng.IntN(29)-14)
		attach(nextID, geo.Pt(x, y), r, 0, false, false)
		tx := nodes[len(nodes)-1]
		attach(nextID+1, geo.Pt(x+r, y), r, 0, false, false)
		attach(nextID+2, geo.Pt(x-r, y+1), r, 0, false, false)
		nextID += 3
		send(tx, BroadcastID)
	}

	unsynced := 0
	for op := 0; op < 400; op++ {
		e.ScheduleAt(time.Duration(op)*150*time.Microsecond, "oracle.op", func() {
			defer func() {
				if err := unsortedBucket(m); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}()
			if edgeFactor == DefaultEdgeFactor && rng.IntN(20) == 0 {
				boundaryProbe()
			}
			live := attached()
			pick := func() *oracleNode { return live[rng.IntN(len(live))] }
			switch r := rng.IntN(100); {
			case r < 40: // broadcast, now and then a burst of two
				send(pick(), BroadcastID)
				if rng.IntN(4) == 0 {
					send(pick(), BroadcastID)
				}
			case r < 45: // from an antenna that may have left
				send(nodes[rng.IntN(len(nodes))], BroadcastID)
			case r < 60: // unicast to anyone ever attached, present or not
				send(pick(), nodes[rng.IntN(len(nodes))].id)
			case r < 70:
				if len(live) > 10 {
					n := pick()
					n.attached = false
					m.Detach(n.id)
				}
			case r < 80:
				if rng.IntN(3) == 0 {
					// Re-attach an ID that left: a fresh antenna, new seq.
					for _, n := range nodes {
						if !n.attached && n.id != 999 && !m.Attached(n.id) {
							attach(n.id, geo.Pt(rng.Float64()*1500, rng.Float64()*30-15), n.rangeM, 0, n.promisc, n.overhears)
							break
						}
					}
				} else {
					randomVehicle()
				}
			default:
				// Motion, synced at once or up to two steps later.
				for _, n := range live {
					if !n.extended {
						n.pos.X += rng.Float64()*40 - 20
					}
				}
				unsynced++
				if unsynced == 3 || rng.IntN(2) == 0 {
					m.SyncPositions()
					for _, n := range live {
						n.synced = n.pos
					}
					unsynced = 0
				}
			}
		})
	}
	e.Run(time.Second)
	if len(log) != 0 {
		t.Fatalf("seed %d: deliveries for frames never checked: %v", seed, log)
	}
	if got := m.Stats(); got != want || want.Transmitted == 0 {
		t.Fatalf("seed %d: final stats %+v, want %+v", seed, got, want)
	}
	return cov
}
