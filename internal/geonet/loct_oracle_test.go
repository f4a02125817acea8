package geonet

import (
	"math/rand/v2"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
)

// refLocT is the reference location table for the differential test: the
// copy-on-refresh Update that LocT used before refreshes went in place
// (every accepted PV stores a freshly allocated entry). Lookup, Purge and
// Neighbors come from the embedded LocT and read the same map.
type refLocT struct{ LocT }

func newRefLocT(ttl, neighborTTL time.Duration) *refLocT {
	return &refLocT{*NewLocT(ttl, neighborTTL)}
}

func (t *refLocT) Update(pv PositionVector, now time.Duration, isNeighbor bool) bool {
	e, ok := t.entries[pv.Addr]
	if ok && now <= e.ExpiresAt && pv.Timestamp <= e.PV.Timestamp {
		if pv.Timestamp < e.PV.Timestamp {
			return false
		}
		if isNeighbor {
			changed := !e.IsNeighbor
			e.IsNeighbor = true
			if until := now + t.neighborTTL; until > e.NeighborUntil {
				e.NeighborUntil = until
				changed = true
			}
			return changed
		}
		return false
	}
	var neighborUntil time.Duration
	wasNeighbor := ok && now <= e.ExpiresAt && e.IsNeighbor
	if wasNeighbor {
		neighborUntil = e.NeighborUntil
	}
	if isNeighbor {
		neighborUntil = now + t.neighborTTL
	}
	t.entries[pv.Addr] = &LocTEntry{
		Addr:          pv.Addr,
		PV:            pv,
		UpdatedAt:     now,
		ExpiresAt:     now + t.ttl,
		IsNeighbor:    isNeighbor || wasNeighbor,
		NeighborUntil: neighborUntil,
	}
	return true
}

// TestLocTInPlaceMatchesReference drives the in-place LocT and the
// copy-on-refresh reference through the same seeded random sequences of
// updates, lookups, purges and clock jumps, and requires identical
// Update results, lookups and Neighbors contents at every step. The
// sequences mix stale PVs, equal-timestamp replays, neighbor-flag
// upgrades, data-packet (non-neighbor) refreshes and re-learning after
// expiry, both before and after the expired entry is purged; the test
// fails if any of those cases never occurred.
func TestLocTInPlaceMatchesReference(t *testing.T) {
	const (
		seeds = 20
		steps = 2000
		addrs = 6
	)
	var stale, replays, upgrades, dataRefresh, relearnExpired, relearnPurged int
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x10c7))
		lt := NewLocT(2*time.Second, 300*time.Millisecond)
		ref := newRefLocT(2*time.Second, 300*time.Millisecond)
		var lastTS [addrs + 1]time.Duration
		var seen [addrs + 1]bool
		now := time.Duration(0)
		for step := 0; step < steps; step++ {
			switch r := rng.IntN(100); {
			case r < 2:
				now += 2*time.Second + time.Duration(rng.IntN(1000))*time.Millisecond
			case r < 70:
				now += time.Duration(rng.IntN(150)) * time.Millisecond
			}
			addr := Address(1 + rng.IntN(addrs))
			switch op := rng.IntN(100); {
			case op < 75:
				ts := lastTS[addr]
				switch k := rng.IntN(100); {
				case k < 15:
					ts -= time.Duration(1+rng.IntN(500)) * time.Millisecond
				case k < 35:
					// Equal timestamp: an immediate replay of the latest PV.
				default:
					ts += time.Duration(1+rng.IntN(200)) * time.Millisecond
					lastTS[addr] = ts
				}
				isNeighbor := rng.IntN(100) < 65
				pv := PositionVector{Addr: addr, Timestamp: ts, Pos: geo.Pt(float64(rng.IntN(1000)), 0)}

				var before LocTEntry
				e, stored := ref.entries[addr]
				if stored {
					before = *e
				}
				prev := lt.entries[addr]
				got := lt.Update(pv, now, isNeighbor)
				want := ref.Update(pv, now, isNeighbor)
				if got != want {
					t.Fatalf("seed %d step %d: Update(%+v, %v, %v) = %v, reference %v",
						seed, step, pv, now, isNeighbor, got, want)
				}
				if stored && lt.entries[addr] != prev {
					t.Fatalf("seed %d step %d: stored entry for %d reallocated, want refreshed in place", seed, step, addr)
				}
				switch {
				case !stored && seen[addr]:
					relearnPurged++
				case stored && now > before.ExpiresAt:
					relearnExpired++
				case stored && ts < before.PV.Timestamp:
					stale++
				case stored && ts == before.PV.Timestamp:
					replays++
					if want && isNeighbor {
						upgrades++
					}
				case stored && !isNeighbor && before.IsNeighbor:
					dataRefresh++
				}
				seen[addr] = true
			case op < 85:
				got, want := lt.Lookup(addr, now), ref.Lookup(addr, now)
				if (got == nil) != (want == nil) || got != nil && *got != *want {
					t.Fatalf("seed %d step %d: Lookup(%d, %v) = %+v, reference %+v", seed, step, addr, now, got, want)
				}
			case op < 90:
				lt.Purge(now)
				ref.Purge(now)
			}
			if lt.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, lt.Len(), ref.Len())
			}
			got, want := lt.Neighbors(now), ref.Neighbors(now)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %d neighbors, reference %d", seed, step, len(got), len(want))
			}
			for i := range got {
				if *got[i] != *want[i] {
					t.Fatalf("seed %d step %d: neighbor %d = %+v, reference %+v", seed, step, i, *got[i], *want[i])
				}
			}
		}
	}
	for name, n := range map[string]int{
		"stale PV":               stale,
		"equal-timestamp replay": replays,
		"neighbor-flag upgrade":  upgrades,
		"data-packet refresh":    dataRefresh,
		"re-learn, expired":      relearnExpired,
		"re-learn, after purge":  relearnPurged,
	} {
		if n == 0 {
			t.Errorf("no %s case in %d random sequences", name, seeds)
		}
	}
}
