package radio

import (
	"testing"
	"time"
	"unsafe"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/sim"
)

// collector records frames for assertions.
type collector struct {
	delivered []Frame
	overheard []Frame
}

func (c *collector) Deliver(f Frame)  { c.delivered = append(c.delivered, f) }
func (c *collector) Overhear(f Frame) { c.overheard = append(c.overheard, f) }

func staticPos(p geo.Point) func() geo.Point { return func() geo.Point { return p } }

func newTestMedium(t *testing.T) (*sim.Engine, *Medium) {
	t.Helper()
	e := sim.NewEngine()
	return e, NewMedium(e, Config{})
}

func TestRangeTableII(t *testing.T) {
	tests := []struct {
		tech  Technology
		class RangeClass
		want  float64
	}{
		{DSRC, LoSMedian, 1283},
		{DSRC, NLoSMedian, 486},
		{DSRC, NLoSWorst, 327},
		{CV2X, LoSMedian, 1703},
		{CV2X, NLoSMedian, 593},
		{CV2X, NLoSWorst, 359},
	}
	for _, tt := range tests {
		if got := Range(tt.tech, tt.class); got != tt.want {
			t.Errorf("Range(%v, %v) = %v, want %v", tt.tech, tt.class, got, tt.want)
		}
	}
}

func TestRangeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown technology")
		}
	}()
	Range(Technology(0), LoSMedian)
}

func TestBroadcastWithinRange(t *testing.T) {
	e, m := newTestMedium(t)
	var near, far collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(50, 0)), &near, false)
	m.Attach(3, 100, staticPos(geo.Pt(150, 0)), &far, false)

	m.SendPooled(tx, BroadcastID, []byte("hello"))
	e.Run(time.Second)

	if len(near.delivered) != 1 {
		t.Fatalf("near node got %d frames, want 1", len(near.delivered))
	}
	if string(near.delivered[0].Payload) != "hello" {
		t.Fatalf("payload = %q", near.delivered[0].Payload)
	}
	if len(far.delivered) != 0 {
		t.Fatalf("far node got %d frames, want 0", len(far.delivered))
	}
}

func TestBroadcastExactRangeBoundary(t *testing.T) {
	e, m := newTestMedium(t)
	var edge collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(100, 0)), &edge, false)
	m.SendPooled(tx, BroadcastID, nil)
	e.Run(time.Second)
	if len(edge.delivered) != 1 {
		t.Fatalf("node at exact range got %d frames, want 1 (boundary inclusive)", len(edge.delivered))
	}
}

func TestNoSelfDelivery(t *testing.T) {
	e, m := newTestMedium(t)
	var self collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &self, false)
	m.SendPooled(tx, BroadcastID, nil)
	e.Run(time.Second)
	if len(self.delivered) != 0 {
		t.Fatal("transmitter must not receive its own frame")
	}
}

func TestUnicastAddressing(t *testing.T) {
	e, m := newTestMedium(t)
	var target, bystander collector
	tx := m.Attach(1, 200, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 200, staticPos(geo.Pt(50, 0)), &target, false)
	m.Attach(3, 200, staticPos(geo.Pt(60, 0)), &bystander, false)

	m.SendPooled(tx, 2, []byte("pkt"))
	e.Run(time.Second)

	if len(target.delivered) != 1 {
		t.Fatalf("target got %d frames, want 1", len(target.delivered))
	}
	if len(bystander.delivered) != 0 {
		t.Fatal("bystander must not receive unicast frame")
	}
	if got := m.Stats().UnicastLost; got != 0 {
		t.Fatalf("UnicastLost = %d, want 0", got)
	}
}

func TestUnicastOutOfRangeIsLost(t *testing.T) {
	e, m := newTestMedium(t)
	var target collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(500, 0)), &target, false)

	m.SendPooled(tx, 2, []byte("pkt"))
	e.Run(time.Second)

	if len(target.delivered) != 0 {
		t.Fatal("out-of-range unicast must not be delivered")
	}
	if got := m.Stats().UnicastLost; got != 1 {
		t.Fatalf("UnicastLost = %d, want 1", got)
	}
}

func TestPromiscuousOverhearsUnicast(t *testing.T) {
	e, m := newTestMedium(t)
	var target, sniffer collector
	tx := m.Attach(1, 200, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 200, staticPos(geo.Pt(50, 0)), &target, false)
	m.Attach(99, 200, staticPos(geo.Pt(-50, 0)), &sniffer, true)

	m.SendPooled(tx, 2, []byte("secret-routing"))
	e.Run(time.Second)

	if len(sniffer.overheard) != 1 {
		t.Fatalf("sniffer overheard %d frames, want 1", len(sniffer.overheard))
	}
	if len(sniffer.delivered) != 0 {
		t.Fatal("sniffer must not get Deliver for foreign unicast")
	}
}

func TestPromiscuousGetsDeliverForBroadcast(t *testing.T) {
	e, m := newTestMedium(t)
	var sniffer collector
	tx := m.Attach(1, 200, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(99, 200, staticPos(geo.Pt(50, 0)), &sniffer, true)

	m.SendPooled(tx, BroadcastID, []byte("beacon"))
	e.Run(time.Second)

	if len(sniffer.delivered) != 1 {
		t.Fatalf("sniffer Deliver count = %d, want 1 for broadcast", len(sniffer.delivered))
	}
	if len(sniffer.overheard) != 0 {
		t.Fatalf("broadcast should not be double-reported via Overhear")
	}
}

func TestAsymmetricRanges(t *testing.T) {
	// The attacker transmits farther than vehicles: a node with a big TX
	// range reaches a node that cannot reach back.
	e, m := newTestMedium(t)
	var vehicle, attacker collector
	atk := m.Attach(1, 1283, staticPos(geo.Pt(0, 0)), &attacker, true)
	veh := m.Attach(2, 486, staticPos(geo.Pt(1000, 0)), &vehicle, false)

	m.SendPooled(atk, BroadcastID, []byte("replayed"))
	m.SendPooled(veh, BroadcastID, []byte("beacon"))
	e.Run(time.Second)

	if len(vehicle.delivered) != 1 {
		t.Fatalf("vehicle should hear attacker (within 1283m): got %d", len(vehicle.delivered))
	}
	if len(attacker.delivered) != 0 {
		t.Fatalf("attacker should not hear vehicle (beyond 486m): got %d", len(attacker.delivered))
	}
}

func TestDeliveryLatency(t *testing.T) {
	e := sim.NewEngine()
	m := NewMedium(e, Config{})
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(10, 0)), &rx, false)

	var early int
	var deliveredAt time.Duration
	e.Schedule(time.Millisecond, "send", func() {
		m.SendPooled(tx, BroadcastID, nil)
	})
	e.Schedule(time.Millisecond+Latency/2, "early", func() {
		early = len(rx.delivered)
	})
	e.Schedule(time.Millisecond+2*Latency, "check", func() {
		if len(rx.delivered) == 1 {
			deliveredAt = rx.delivered[0].TxTime
		}
	})
	e.Run(time.Second)
	if early != 0 {
		t.Fatalf("%d frames delivered before the %v latency elapsed", early, Latency)
	}
	if len(rx.delivered) != 1 {
		t.Fatal("frame not delivered")
	}
	if deliveredAt != time.Millisecond {
		t.Fatalf("TxTime = %v, want 1ms", deliveredAt)
	}
}

func TestMovingReceiverSampledAtSendTime(t *testing.T) {
	// The receiver set is computed at send time; a node that is in range
	// then still receives even if its position callback later changes.
	e, m := newTestMedium(t)
	pos := geo.Pt(50, 0)
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, func() geo.Point { return pos }, &rx, false)

	m.SendPooled(tx, BroadcastID, nil)
	pos = geo.Pt(5000, 0) // teleports away before the latency elapses
	e.Run(time.Second)
	if len(rx.delivered) != 1 {
		t.Fatal("receiver set must be fixed at send time")
	}
}

func TestDetachDropsInFlight(t *testing.T) {
	e, m := newTestMedium(t)
	var rx collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(10, 0)), &rx, false)

	m.SendPooled(tx, BroadcastID, nil)
	m.Detach(2) // leaves before delivery latency elapses
	e.Run(time.Second)
	if len(rx.delivered) != 0 {
		t.Fatal("detached node must not receive in-flight frames")
	}
	if m.Attached(2) {
		t.Fatal("node still attached after Detach")
	}
	if len(m.order) != 1 {
		t.Fatalf("%d nodes attached, want 1", len(m.order))
	}
}

func TestDetachUnknownIsNoop(t *testing.T) {
	_, m := newTestMedium(t)
	m.Detach(42) // must not panic
}

func TestDuplicateAttachPanics(t *testing.T) {
	_, m := newTestMedium(t)
	m.Attach(7, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate attach")
		}
	}()
	m.Attach(7, 100, staticPos(geo.Pt(1, 0)), &collector{}, false)
}

func TestObstructionBlocksLink(t *testing.T) {
	e := sim.NewEngine()
	hill := CircleObstruction{Center: geo.Pt(50, 0), Radius: 10}
	m := NewMedium(e, Config{Obstructions: []Obstruction{hill}})
	var behind, aside collector
	tx := m.Attach(1, 200, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 200, staticPos(geo.Pt(100, 0)), &behind, false) // through the hill
	m.Attach(3, 200, staticPos(geo.Pt(0, 100)), &aside, false)  // clear path

	m.SendPooled(tx, BroadcastID, nil)
	e.Run(time.Second)

	if len(behind.delivered) != 0 {
		t.Fatal("obstructed node must not receive")
	}
	if len(aside.delivered) != 1 {
		t.Fatal("unobstructed node must receive")
	}
}

func TestCircleObstructionBlocks(t *testing.T) {
	o := CircleObstruction{Center: geo.Pt(0, 0), Radius: 5}
	tests := []struct {
		name string
		a, b geo.Point
		want bool
	}{
		{"through center", geo.Pt(-10, 0), geo.Pt(10, 0), true},
		{"tangent outside", geo.Pt(-10, 6), geo.Pt(10, 6), false},
		{"both on same side", geo.Pt(10, 1), geo.Pt(20, 1), false},
		{"grazing at radius", geo.Pt(-10, 5), geo.Pt(10, 5), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := o.Blocks(tt.a, tt.b); got != tt.want {
				t.Errorf("Blocks = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	e, m := newTestMedium(t)
	var a, b, s collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(10, 0)), &a, false)
	m.Attach(3, 100, staticPos(geo.Pt(20, 0)), &b, false)
	m.Attach(4, 100, staticPos(geo.Pt(30, 0)), &s, true)

	m.SendPooled(tx, BroadcastID, nil) // delivered to 3
	m.SendPooled(tx, 2, nil)           // delivered to 1, overheard by sniffer
	e.Run(time.Second)

	st := m.Stats()
	if st.Transmitted != 2 {
		t.Errorf("Transmitted = %d, want 2", st.Transmitted)
	}
	if st.Delivered != 4 { // 3 broadcast + 1 unicast
		t.Errorf("Delivered = %d, want 4", st.Delivered)
	}
	if st.Overheard != 1 {
		t.Errorf("Overheard = %d, want 1", st.Overheard)
	}
}

func TestSetRange(t *testing.T) {
	e, m := newTestMedium(t)
	var far collector
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(500, 0)), &far, false)

	m.SendPooled(tx, BroadcastID, nil)
	tx.SetRange(1000)
	m.SendPooled(tx, BroadcastID, nil)
	e.Run(time.Second)

	if len(far.delivered) != 1 {
		t.Fatalf("far node got %d frames, want exactly the post-SetRange one", len(far.delivered))
	}
}

// TestAntennaSizeClass pins Antenna (104 bytes) in the allocator's
// 112-byte size class, which every attach allocates: every node holds
// one, and collect reads each candidate's position, ranges and seq from
// it for every frame. Two more words would move it to the 128-byte class.
func TestAntennaSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Antenna{}); got > 112 {
		t.Fatalf("unsafe.Sizeof(Antenna{}) = %d, past the 112-byte size class", got)
	}
}
