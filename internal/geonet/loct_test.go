package geonet

import (
	"testing"
	"time"
	"unsafe"

	"github.com/vanetsec/georoute/internal/geo"
)

// newLocT builds a location table outside a router, with the given entry
// TTL and neighbor-status lifetime.
func newLocT(ttl, neighborTTL time.Duration) *LocT {
	t := new(LocT)
	t.setTTL(ttl, neighborTTL)
	return t
}

func pvAt(addr Address, x float64, ts time.Duration) PositionVector {
	return PositionVector{Addr: addr, Timestamp: ts, Pos: geo.Pt(x, 0)}
}

func TestLocTInsertAndLookup(t *testing.T) {
	lt := newLocT(20*time.Second, 0)
	if !lt.Update(pvAt(1, 100, 0), 0, true) {
		t.Fatal("fresh insert must report change")
	}
	e := lt.Lookup(1, time.Second)
	if e == nil || e.PV.Pos.X != 100 || !e.NeighborAt(time.Second) {
		t.Fatalf("Lookup = %+v", e)
	}
	if lt.Lookup(2, time.Second) != nil {
		t.Fatal("unknown address must return nil")
	}
}

func TestLocTTTLExpiry(t *testing.T) {
	lt := newLocT(5*time.Second, 0)
	lt.Update(pvAt(1, 100, 0), 0, true)
	if lt.Lookup(1, 5*time.Second) == nil {
		t.Fatal("entry must live through its TTL")
	}
	if lt.Lookup(1, 5*time.Second+time.Nanosecond) != nil {
		t.Fatal("entry must expire after TTL")
	}
}

func TestLocTDefaultTTL(t *testing.T) {
	lt := newLocT(0, 0)
	if lt.ttl != 20*time.Second {
		t.Fatalf("default TTL = %v, want 20s (standard default)", lt.ttl)
	}
}

func TestLocTFreshnessRejectsOlderPV(t *testing.T) {
	lt := newLocT(20*time.Second, 0)
	lt.Update(pvAt(1, 100, 10*time.Second), 10*time.Second, true)
	// A replayed STALE beacon (older timestamp) must not regress the entry.
	if lt.Update(pvAt(1, 50, 5*time.Second), 11*time.Second, true) {
		t.Fatal("older PV accepted")
	}
	if got := lt.Lookup(1, 11*time.Second).PV.Pos.X; got != 100 {
		t.Fatalf("position = %v, want 100", got)
	}
	// The latest beacon replayed immediately (same timestamp) is a no-op
	// but newer timestamps always win.
	if !lt.Update(pvAt(1, 200, 12*time.Second), 12*time.Second, true) {
		t.Fatal("newer PV rejected")
	}
}

func TestLocTExpiredEntryAcceptsOldTimestamp(t *testing.T) {
	// After expiry the freshness guard resets: a node that went silent and
	// returns is re-learned even if clocks look odd.
	lt := newLocT(5*time.Second, 0)
	lt.Update(pvAt(1, 100, 4*time.Second), 4*time.Second, true)
	if !lt.Update(pvAt(1, 50, 2*time.Second), 30*time.Second, true) {
		t.Fatal("update after expiry rejected")
	}
}

func TestLocTNeighborFlagUpgradeAndPersistence(t *testing.T) {
	lt := newLocT(20*time.Second, 0)
	// Learned from a forwarded data packet first: not a neighbor.
	lt.Update(pvAt(1, 100, time.Second), time.Second, false)
	if lt.Lookup(1, time.Second).NeighborAt(time.Second) {
		t.Fatal("data-packet PV must not set IS_NEIGHBOUR")
	}
	// Same PV heard as a beacon: flag upgrades even though the PV is not newer.
	if !lt.Update(pvAt(1, 100, time.Second), time.Second+1, true) {
		t.Fatal("flag upgrade must report change")
	}
	if !lt.Lookup(1, 2*time.Second).NeighborAt(2 * time.Second) {
		t.Fatal("beacon must set IS_NEIGHBOUR")
	}
	// A later data-packet PV refreshes the position but keeps the flag.
	lt.Update(pvAt(1, 200, 3*time.Second), 3*time.Second, false)
	e := lt.Lookup(1, 3*time.Second)
	if e.PV.Pos.X != 200 || !e.NeighborAt(3*time.Second) {
		t.Fatalf("entry after data refresh = %+v", e)
	}
}

func TestLocTNeighborsSortedAndLive(t *testing.T) {
	lt := newLocT(10*time.Second, 0)
	lt.Update(pvAt(3, 30, 0), 0, true)
	lt.Update(pvAt(1, 10, 0), 0, true)
	lt.Update(pvAt(2, 20, 5*time.Second), 5*time.Second, true)
	ns := lt.AppendNeighbors(nil, 12*time.Second) // 1 and 3 expired at t=10s
	if len(ns) != 1 || ns[0].PV.Addr != 2 {
		t.Fatalf("AppendNeighbors = %+v, want only addr 2", ns)
	}
	lt2 := newLocT(10*time.Second, 0)
	for _, a := range []Address{5, 2, 9, 1} {
		lt2.Update(pvAt(a, float64(a), 0), 0, true)
	}
	ns2 := lt2.AppendNeighbors(nil, 0)
	for i := 1; i < len(ns2); i++ {
		if ns2[i-1].PV.Addr >= ns2[i].PV.Addr {
			t.Fatalf("AppendNeighbors not sorted: %+v", ns2)
		}
	}
}

func TestLocTClosest(t *testing.T) {
	lt := newLocT(20*time.Second, 0)
	lt.Update(pvAt(1, 100, 0), 0, true)
	lt.Update(pvAt(2, 300, 0), 0, true)
	lt.Update(pvAt(3, 200, 0), 0, true)
	dst := geo.Pt(400, 0)
	best := lt.Closest(dst, time.Second, nil)
	if best == nil || best.PV.Addr != 2 {
		t.Fatalf("Closest = %+v, want addr 2", best)
	}
	// Filter excludes the winner: next best is picked.
	best = lt.Closest(dst, time.Second, func(e *LocTEntry, _ geo.Point) bool { return e.PV.Addr != 2 })
	if best == nil || best.PV.Addr != 3 {
		t.Fatalf("filtered Closest = %+v, want addr 3", best)
	}
	// Filter excludes everything.
	if lt.Closest(dst, time.Second, func(*LocTEntry, geo.Point) bool { return false }) != nil {
		t.Fatal("Closest with all-rejecting filter must be nil")
	}
}

// TestLocTEntrySizeClass pins LocTEntry to one 64-byte cache line, the
// allocator's 64-byte size class: every source a receiver learns costs
// one entry, and one word more moves it to the 80-byte class.
func TestLocTEntrySizeClass(t *testing.T) {
	if got := unsafe.Sizeof(LocTEntry{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(LocTEntry{}) = %d, want 64 (one line, the 64-byte class)", got)
	}
}

// TestLocTRefreshAllocs: refreshing known addresses with advancing PV
// timestamps — what every fresh beacon does — overwrites the stored
// entries in place and allocates nothing on a warm table.
func TestLocTRefreshAllocs(t *testing.T) {
	const addrs = 64
	lt := newLocT(20*time.Second, 0)
	for a := Address(1); a <= addrs; a++ {
		lt.Update(pvAt(a, float64(a), 0), 0, true)
	}
	ts := time.Duration(0)
	allocs := testing.AllocsPerRun(100, func() {
		ts += 100 * time.Millisecond
		for a := Address(1); a <= addrs; a++ {
			if !lt.Update(pvAt(a, float64(a)+1, ts), ts, a%2 == 0) {
				t.Fatal("newer PV rejected")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("LocT refresh allocates %.1f per %d updates, want 0", allocs, addrs)
	}
}

// TestLocTSweepBeforeGrow: an insert that would grow the index first
// sweeps the expired entries onto the free list and takes its entry from
// there, so the index keeps its size. While the entries live, the same
// insert grows the index and keeps them all.
func TestLocTSweepBeforeGrow(t *testing.T) {
	lt := newLocT(time.Second, 0)
	var a Address
	learn := func(now time.Duration) *LocTEntry {
		a++
		lt.Update(pvAt(a, 0, now), now, true)
		return lt.entries.Get(a)
	}
	for !lt.entries.Full() {
		learn(0)
	}
	n := lt.Len()
	learn(0)
	if lt.Len() != n+1 {
		t.Fatalf("insert into a full index of live entries: Len = %d, want %d", lt.Len(), n+1)
	}
	for !lt.entries.Full() {
		learn(0)
	}
	stored := make(map[*LocTEntry]bool)
	lt.entries.Sweep(func(e *LocTEntry) bool { stored[e] = true; return true })
	later := 5 * time.Second // every stored entry has expired
	if e := learn(later); lt.Len() != 1 || !stored[e] {
		t.Fatalf("insert after expiry: Len = %d, entry reused %v; want 1, true", lt.Len(), stored[e])
	}
	if len(lt.free) != len(stored)-1 {
		t.Fatalf("free list holds %d entries, want %d", len(lt.free), len(stored)-1)
	}
	// The index did not grow: it fills up at the same count as before,
	// every new address taking a freed entry.
	for lt.Len() < len(stored) {
		if lt.entries.Full() {
			t.Fatalf("index full at %d entries, was full at %d", lt.Len(), len(stored))
		}
		if e := learn(later); !stored[e] {
			t.Fatal("new address allocated while the free list held entries")
		}
	}
	if !lt.entries.Full() || len(lt.free) != 0 {
		t.Fatalf("after refilling: Full %v, %d free entries; want true, 0", lt.entries.Full(), len(lt.free))
	}
}

// TestLocTSizeClass pins LocT to the allocator's 80-byte size class: a
// 50,000-vehicle world allocates one per router, and the free list took
// the word the Closest scratch buffer gave up.
func TestLocTSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(LocT{}); got > 80 {
		t.Fatalf("unsafe.Sizeof(LocT{}) = %d, want <= 80 (the 80-byte class)", got)
	}
}

// TestLocTClosestTieBreak: of candidates equidistant from the
// destination, Closest picks the lowest address, as the walk in address
// order did, whatever the insertion order and slot order. The addresses
// differ in their top byte, so their slots are not in address order.
func TestLocTClosestTieBreak(t *testing.T) {
	addrs := []Address{5 << 56, 1<<56 | 7, 3 << 56, 9, 2<<56 | 1, 6 << 56}
	dst := geo.Pt(500, 0)
	for rot := range addrs {
		lt := newLocT(20*time.Second, 0)
		for i := range addrs {
			a := addrs[(rot+i)%len(addrs)]
			// Every other candidate on each side of dst, all 100 m from it.
			x := 400.0
			if i%2 == 1 {
				x = 600
			}
			lt.Update(pvAt(a, x, 0), 0, true)
		}
		lt.Update(pvAt(4<<56, 300, 0), 0, true) // farther: never picked
		if got := lt.Closest(dst, time.Second, nil); got == nil || got.PV.Addr != 9 {
			t.Fatalf("rotation %d: Closest = %+v, want the lowest address 9", rot, got)
		}
		got := lt.Closest(dst, time.Second, func(e *LocTEntry, _ geo.Point) bool { return e.PV.Addr != 9 })
		if got == nil || got.PV.Addr != 1<<56|7 {
			t.Fatalf("rotation %d: filtered Closest = %+v, want %#x", rot, got, Address(1<<56|7))
		}
	}
}

// TestLocTWarmAllocs: on a warm table, Lookup, AppendNeighbors and
// Closest allocate nothing, and neither does re-learning addresses once
// their entries were removed, by any of the removal paths: Lookup, the
// sweeps of AppendNeighbors and Closest, and the sweep before the index
// would grow. Each removal puts the entry on the free list, and the next
// new address takes it from there.
func TestLocTWarmAllocs(t *testing.T) {
	const addrs = 64
	lt := newLocT(time.Second, 0)
	buf := make([]*LocTEntry, 0, addrs)
	now := time.Duration(0)
	first := Address(1)
	learn := func() {
		now += 2 * time.Second
		for a := first; a < first+addrs; a++ {
			lt.Update(pvAt(a, float64(a), now), now, true)
		}
	}
	learn()
	if allocs := testing.AllocsPerRun(100, func() {
		for a := Address(1); a <= addrs; a++ {
			if lt.Lookup(a, now) == nil {
				t.Fatal("live entry not found")
			}
		}
		if buf = lt.AppendNeighbors(buf[:0], now); len(buf) != addrs {
			t.Fatalf("AppendNeighbors = %d entries, want %d", len(buf), addrs)
		}
		if lt.Closest(geo.Pt(0, 0), now, nil) == nil {
			t.Fatal("Closest found no live entry")
		}
	}); allocs != 0 {
		t.Fatalf("Lookup, AppendNeighbors and Closest of live entries allocate %.1f, want 0", allocs)
	}
	for _, c := range []struct {
		name   string
		remove func()
	}{
		{"Lookup", func() {
			for a := first; a < first+addrs; a++ {
				lt.Lookup(a, now)
			}
		}},
		{"AppendNeighbors", func() { buf = lt.AppendNeighbors(buf[:0], now) }},
		{"Closest", func() { lt.Closest(geo.Pt(0, 0), now, nil) }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			learn()
			now += 2 * time.Second
			c.remove()
			if lt.Len() != 0 {
				t.Fatalf("%s left %d expired entries", c.name, lt.Len())
			}
		})
		if allocs != 0 {
			t.Errorf("re-learning %d addresses and removing them with %s allocates %.1f, want 0", addrs, c.name, allocs)
		}
	}
	// New addresses every round and no reader: only the sweep before
	// growth removes the expired entries. Warm up until the index and the
	// free list have reached their size.
	fresh := func() {
		first += addrs
		learn()
	}
	for i := 0; i < 4; i++ {
		fresh()
	}
	if allocs := testing.AllocsPerRun(100, fresh); allocs != 0 {
		t.Errorf("learning %d new addresses a round over expired ones allocates %.1f, want 0", addrs, allocs)
	}
	if lt.Len() > 2*addrs {
		t.Errorf("Len = %d after rounds of %d new addresses, want at most %d", lt.Len(), addrs, 2*addrs)
	}
}

// TestTakeLocTRecyclesTable: a stopped router hands its table on and
// exposes no table itself; a router built with that table uses the same
// object, emptied and with its own lifetimes, and learns its first
// neighbors from the entries of the old one. A router that is still
// running cannot hand its table on.
func TestTakeLocTRecyclesTable(t *testing.T) {
	w := newWorld(t)
	old := w.addNode(1, geo.Pt(0, 0), 500, nil)
	for a := Address(10); a < 20; a++ {
		old.LocT().Update(pvAt(a, float64(a), 0), 0, true)
	}
	learned := make(map[*LocTEntry]bool)
	for _, e := range old.LocT().AppendNeighbors(nil, 0) {
		learned[e] = true
	}
	mustPanic(t, "TakeLocT on a running router", func() { old.TakeLocT() })
	old.Stop()
	lt := old.TakeLocT()
	if old.LocT() != nil || old.TakeLocT() != nil {
		t.Fatal("stopped router still exposes a table after handing it on")
	}
	r := w.addNode(2, geo.Pt(0, 0), 500, func(c *Config) {
		c.LocT = lt
		c.LocTTTL = 7 * time.Second
	})
	if r.LocT() != lt || lt.ttl != 7*time.Second {
		t.Fatalf("new router's table %p (TTL %v), want the handed-on %p with TTL 7s", r.LocT(), lt.ttl, lt)
	}
	if lt.Len() != 0 || len(lt.free) != len(learned) {
		t.Fatalf("handed-on table: Len %d, %d free entries; want 0 and %d", lt.Len(), len(lt.free), len(learned))
	}
	for a := Address(10); a < 20; a++ {
		if lt.Lookup(a, 0) != nil {
			t.Fatalf("new router's table holds the old router's address %d", a)
		}
	}
	for a := Address(30); a < 40; a++ {
		lt.Update(pvAt(a, float64(a), 0), 0, true)
		if !learned[lt.entries.Get(a)] {
			t.Fatalf("address %d got a new entry while the free list held %d", a, len(lt.free))
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}
