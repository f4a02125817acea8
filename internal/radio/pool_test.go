package radio

import (
	"math/rand/v2"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/sim"
)

// cacheProbe records the frame cache pointer and payload each delivery saw.
type cacheProbe struct {
	caches   []*FrameCache
	payloads []string
	fresh    []bool // cache was unused (not DecodeDone) at delivery time
}

func (c *cacheProbe) Deliver(f Frame) {
	c.caches = append(c.caches, f.Cache)
	c.payloads = append(c.payloads, string(f.Payload))
	if f.Cache != nil {
		c.fresh = append(c.fresh, !f.Cache.DecodeDone)
		// Simulate a receiver populating the cache so the recycling path
		// has state to scrub.
		f.Cache.DecodeDone = true
		f.Cache.Decoded = f.Cache
		f.Cache.VerifyDone = true
		f.Cache.Verifier = f.Cache
	}
}

// TestFrameCacheSharedAcrossReceivers checks that every receiver of one
// broadcast sees the same cache instance, and that the recycled cache
// arrives scrubbed at the next transmission.
func TestFrameCacheSharedAcrossReceivers(t *testing.T) {
	e, m := newTestMedium(t)
	var a, b cacheProbe
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(30, 0)), &a, false)
	m.Attach(3, 100, staticPos(geo.Pt(60, 0)), &b, false)

	m.SendPooled(tx, BroadcastID, []byte("one"))
	e.Run(time.Second)
	m.SendPooled(tx, BroadcastID, []byte("two"))
	e.Run(2 * time.Second)

	if len(a.caches) != 2 || len(b.caches) != 2 {
		t.Fatalf("deliveries = %d/%d, want 2/2", len(a.caches), len(b.caches))
	}
	if a.caches[0] == nil {
		t.Fatal("delivered frame carried no cache")
	}
	if a.caches[0] != b.caches[0] {
		t.Fatal("receivers of one transmission got distinct caches")
	}
	// The pool recycles the cache; the second transmission must present it
	// reset even though the first delivery dirtied it.
	for i, fresh := range a.fresh {
		if !fresh {
			t.Fatalf("transmission %d delivered an unscrubbed cache", i)
		}
	}
}

// TestSendPooledRecyclesPayload checks the payload free list: a buffer
// handed to SendPooled is reclaimed after the delivery walk and handed
// back by GrabPayload, without corrupting what receivers saw.
func TestSendPooledRecyclesPayload(t *testing.T) {
	e, m := newTestMedium(t)
	var rx cacheProbe
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	m.Attach(2, 100, staticPos(geo.Pt(30, 0)), &rx, false)

	buf := m.GrabPayload()
	first := append(buf, "frame-1"...)
	m.SendPooled(tx, BroadcastID, first)
	e.Run(time.Second)

	reused := m.GrabPayload()
	if cap(reused) == 0 || &reused[:1][0] != &first[:1][0] {
		t.Fatal("GrabPayload did not hand back the recycled buffer")
	}
	m.SendPooled(tx, BroadcastID, append(reused, "frame-2"...))
	e.Run(2 * time.Second)

	if len(rx.payloads) != 2 || rx.payloads[0] != "frame-1" || rx.payloads[1] != "frame-2" {
		t.Fatalf("payloads = %q, want [frame-1 frame-2]", rx.payloads)
	}
}

// TestSendPooledNoTargetsReleasesImmediately covers the early-exit
// paths: with nobody in range (or a removed sender) the pooled buffer
// must return to the free list without a delivery event.
func TestSendPooledNoTargetsReleasesImmediately(t *testing.T) {
	_, m := newTestMedium(t)
	tx := m.Attach(1, 100, staticPos(geo.Pt(0, 0)), &collector{}, false)
	buf := append(m.GrabPayload(), "lonely"...)
	m.SendPooled(tx, BroadcastID, buf)
	back := m.GrabPayload()
	if cap(back) == 0 || &back[:1][0] != &buf[:1][0] {
		t.Fatal("no-target send did not release the pooled buffer")
	}
}

// TestWarmBroadcastAllocs pins a warm broadcast — SendPooled, the merge of the
// grid buckets and the extended sniffer into the receiver slice, and
// the delivery event — at zero allocations: the merge scratch, the
// receiver slices, transmissions and engine events are all reused.
func TestWarmBroadcastAllocs(t *testing.T) {
	e := sim.NewEngine()
	m := NewMedium(e, Config{})
	rng := rand.New(rand.NewPCG(3, 4))
	var tx *Antenna
	for k, i := range rng.Perm(200) {
		if k == 100 {
			// The sniffer attaches mid-sequence, so its merge is not an append.
			m.Attach(999, benchRange, staticPos(geo.Pt(4000, 0)), nopReceiver{}, true).SetRxRange(2000)
		}
		p := geo.Pt(float64(i)*benchSpacing, 0)
		a := m.Attach(NodeID(i+1), benchRange, staticPos(p), nopReceiver{}, i%10 == 0)
		if i == 100 {
			tx = a
		}
	}
	round := func() {
		m.SendPooled(tx, BroadcastID, append(m.GrabPayload(), "warm-frame"...))
		e.Run(e.Now() + 2*Latency)
	}
	for i := 0; i < 10; i++ {
		round()
	}
	before := m.Stats().Delivered
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("warm broadcast made %v allocs/op, want 0", allocs)
	}
	if per := (m.Stats().Delivered - before) / 201; per < 30 {
		t.Fatalf("%d deliveries per frame: the scenario does not fan out across cells", per)
	}
}
