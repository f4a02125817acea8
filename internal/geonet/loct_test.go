package geonet

import (
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
)

func pvAt(addr Address, x float64, ts time.Duration) PositionVector {
	return PositionVector{Addr: addr, Timestamp: ts, Pos: geo.Pt(x, 0)}
}

func TestLocTInsertAndLookup(t *testing.T) {
	lt := NewLocT(20*time.Second, 0)
	if !lt.Update(pvAt(1, 100, 0), 0, true) {
		t.Fatal("fresh insert must report change")
	}
	e := lt.Lookup(1, time.Second)
	if e == nil || e.PV.Pos.X != 100 || !e.IsNeighbor {
		t.Fatalf("Lookup = %+v", e)
	}
	if lt.Lookup(2, time.Second) != nil {
		t.Fatal("unknown address must return nil")
	}
}

func TestLocTTTLExpiry(t *testing.T) {
	lt := NewLocT(5*time.Second, 0)
	lt.Update(pvAt(1, 100, 0), 0, true)
	if lt.Lookup(1, 5*time.Second) == nil {
		t.Fatal("entry must live through its TTL")
	}
	if lt.Lookup(1, 5*time.Second+time.Nanosecond) != nil {
		t.Fatal("entry must expire after TTL")
	}
}

func TestLocTDefaultTTL(t *testing.T) {
	lt := NewLocT(0, 0)
	if lt.TTL() != 20*time.Second {
		t.Fatalf("default TTL = %v, want 20s (standard default)", lt.TTL())
	}
}

func TestLocTFreshnessRejectsOlderPV(t *testing.T) {
	lt := NewLocT(20*time.Second, 0)
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
	lt := NewLocT(5*time.Second, 0)
	lt.Update(pvAt(1, 100, 4*time.Second), 4*time.Second, true)
	if !lt.Update(pvAt(1, 50, 2*time.Second), 30*time.Second, true) {
		t.Fatal("update after expiry rejected")
	}
}

func TestLocTNeighborFlagUpgradeAndPersistence(t *testing.T) {
	lt := NewLocT(20*time.Second, 0)
	// Learned from a forwarded data packet first: not a neighbor.
	lt.Update(pvAt(1, 100, time.Second), time.Second, false)
	if lt.Lookup(1, time.Second).IsNeighbor {
		t.Fatal("data-packet PV must not set IsNeighbor")
	}
	// Same PV heard as a beacon: flag upgrades even though the PV is not newer.
	if !lt.Update(pvAt(1, 100, time.Second), time.Second+1, true) {
		t.Fatal("flag upgrade must report change")
	}
	if !lt.Lookup(1, 2*time.Second).IsNeighbor {
		t.Fatal("beacon must set IsNeighbor")
	}
	// A later data-packet PV refreshes the position but keeps the flag.
	lt.Update(pvAt(1, 200, 3*time.Second), 3*time.Second, false)
	e := lt.Lookup(1, 3*time.Second)
	if e.PV.Pos.X != 200 || !e.IsNeighbor {
		t.Fatalf("entry after data refresh = %+v", e)
	}
}

func TestLocTNeighborsSortedAndLive(t *testing.T) {
	lt := NewLocT(10*time.Second, 0)
	lt.Update(pvAt(3, 30, 0), 0, true)
	lt.Update(pvAt(1, 10, 0), 0, true)
	lt.Update(pvAt(2, 20, 5*time.Second), 5*time.Second, true)
	ns := lt.AppendNeighbors(nil, 12*time.Second) // 1 and 3 expired at t=10s
	if len(ns) != 1 || ns[0].Addr != 2 {
		t.Fatalf("AppendNeighbors = %+v, want only addr 2", ns)
	}
	lt2 := NewLocT(10*time.Second, 0)
	for _, a := range []Address{5, 2, 9, 1} {
		lt2.Update(pvAt(a, float64(a), 0), 0, true)
	}
	ns2 := lt2.AppendNeighbors(nil, 0)
	for i := 1; i < len(ns2); i++ {
		if ns2[i-1].Addr >= ns2[i].Addr {
			t.Fatalf("AppendNeighbors not sorted: %+v", ns2)
		}
	}
}

func TestLocTClosest(t *testing.T) {
	lt := NewLocT(20*time.Second, 0)
	lt.Update(pvAt(1, 100, 0), 0, true)
	lt.Update(pvAt(2, 300, 0), 0, true)
	lt.Update(pvAt(3, 200, 0), 0, true)
	dst := geo.Pt(400, 0)
	best := lt.Closest(dst, time.Second, nil)
	if best == nil || best.Addr != 2 {
		t.Fatalf("Closest = %+v, want addr 2", best)
	}
	// Filter excludes the winner: next best is picked.
	best = lt.Closest(dst, time.Second, func(e *LocTEntry, _ geo.Point) bool { return e.Addr != 2 })
	if best == nil || best.Addr != 3 {
		t.Fatalf("filtered Closest = %+v, want addr 3", best)
	}
	// Filter excludes everything.
	if lt.Closest(dst, time.Second, func(*LocTEntry, geo.Point) bool { return false }) != nil {
		t.Fatal("Closest with all-rejecting filter must be nil")
	}
}

// TestLocTRefreshAllocs: refreshing known addresses with advancing PV
// timestamps — what every fresh beacon does — overwrites the stored
// entries in place and allocates nothing on a warm table.
func TestLocTRefreshAllocs(t *testing.T) {
	const addrs = 64
	lt := NewLocT(20*time.Second, 0)
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

func TestLocTPurge(t *testing.T) {
	lt := NewLocT(time.Second, 0)
	for a := Address(1); a <= 10; a++ {
		lt.Update(pvAt(a, 0, 0), 0, true)
	}
	if lt.Len() != 10 {
		t.Fatalf("Len = %d, want 10", lt.Len())
	}
	lt.Purge(5 * time.Second)
	if lt.Len() != 0 {
		t.Fatalf("Len after purge = %d, want 0", lt.Len())
	}
}

// TestLocTWarmAllocs: on a warm table, Lookup, AppendNeighbors and Purge
// allocate nothing, also when they remove expired entries, and an
// address learned again after its removal allocates exactly its one new
// entry.
func TestLocTWarmAllocs(t *testing.T) {
	const addrs = 64
	lt := NewLocT(time.Second, 0)
	buf := make([]*LocTEntry, 0, addrs)
	now := time.Duration(0)
	learn := func() {
		now += 2 * time.Second
		for a := Address(1); a <= addrs; a++ {
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
		lt.Purge(now)
	}); allocs != 0 {
		t.Fatalf("Lookup, AppendNeighbors and Purge of live entries allocate %.1f, want 0", allocs)
	}
	for _, c := range []struct {
		name   string
		remove func()
	}{
		{"Lookup", func() {
			for a := Address(1); a <= addrs; a++ {
				lt.Lookup(a, now)
			}
		}},
		{"AppendNeighbors", func() { buf = lt.AppendNeighbors(buf[:0], now) }},
		{"Purge", func() { lt.Purge(now) }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			learn()
			now += 2 * time.Second
			c.remove()
			if lt.Len() != 0 {
				t.Fatalf("%s left %d expired entries", c.name, lt.Len())
			}
		})
		if allocs != addrs {
			t.Errorf("re-learning %d addresses and removing them with %s allocates %.1f, want %d (one entry each)",
				addrs, c.name, allocs, addrs)
		}
	}
}
