package geonet

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
)

// refLocT is the reference location table for the differential test: a
// Go map of entries, as LocT was before its address index, with the
// copy-on-refresh Update it had before refreshes went in place (every
// accepted PV stores a freshly allocated entry). Its entries keep the
// fields LocTEntry folded away, so the oracle checks the folded neighbor
// flag on its own terms.
type refLocT struct {
	ttl, neighborTTL time.Duration
	entries          map[Address]*refEntry
}

// refEntry is LocTEntry as it was before it was cut to one cache line:
// its own address, its refresh time and a separate IS_NEIGHBOUR flag.
type refEntry struct {
	Addr          Address
	PV            PositionVector
	UpdatedAt     time.Duration
	ExpiresAt     time.Duration
	IsNeighbor    bool
	NeighborUntil time.Duration
}

// matches reports whether e holds what the reference entry r holds, for a
// table with entry lifetime ttl.
func (r *refEntry) matches(e *LocTEntry, ttl time.Duration) bool {
	if e.PV != r.PV || e.PV.Addr != r.Addr || e.ExpiresAt != r.ExpiresAt || e.ExpiresAt-ttl != r.UpdatedAt {
		return false
	}
	if !r.IsNeighbor {
		return e.NeighborUntil < 0
	}
	return e.NeighborUntil == r.NeighborUntil
}

func newRefLocT(ttl, neighborTTL time.Duration) *refLocT {
	return &refLocT{ttl: ttl, neighborTTL: neighborTTL, entries: make(map[Address]*refEntry)}
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
	t.entries[pv.Addr] = &refEntry{
		Addr:          pv.Addr,
		PV:            pv,
		UpdatedAt:     now,
		ExpiresAt:     now + t.ttl,
		IsNeighbor:    isNeighbor || wasNeighbor,
		NeighborUntil: neighborUntil,
	}
	return true
}

func (t *refLocT) Lookup(addr Address, now time.Duration) *refEntry {
	e, ok := t.entries[addr]
	if !ok {
		return nil
	}
	if now > e.ExpiresAt {
		delete(t.entries, addr)
		return nil
	}
	return e
}

func (t *refLocT) Len() int { return len(t.entries) }

func (t *refLocT) Neighbors(now time.Duration) []*refEntry {
	var live []*refEntry
	for addr, e := range t.entries {
		if now > e.ExpiresAt {
			delete(t.entries, addr)
			continue
		}
		live = append(live, e)
	}
	slices.SortFunc(live, func(a, b *refEntry) int { return cmp.Compare(a.Addr, b.Addr) })
	return live
}

// Closest is the walk Closest was before it took a one-sweep minimum: the
// live entries in address order, keeping the first strictly nearer one.
func (t *refLocT) Closest(dst geo.Point, now time.Duration, accept func(*refEntry) bool) *refEntry {
	var best *refEntry
	bestDist := 0.0
	for _, e := range t.Neighbors(now) {
		if !accept(e) {
			continue
		}
		if d := e.PV.Pos.DistanceTo(dst); best == nil || d < bestDist {
			best, bestDist = e, d
		}
	}
	return best
}

// TestLocTInPlaceMatchesReference drives the in-place LocT and the
// map-backed, copy-on-refresh reference through the same seeded random
// sequences of updates, lookups, Closest calls and clock jumps, and
// requires identical Update results, lookups, Closest picks and
// AppendNeighbors contents. The sequences mix stale PVs, equal-timestamp
// replays, neighbor-flag upgrades, data-packet (non-neighbor) refreshes
// and re-learning after expiry, both before and after the expired entry
// is removed. Closest runs with random filters toward points on the line
// the entries sit on, so equidistant candidates are common and the
// address tie-break is exercised.
//
// LocT also sweeps expired entries before its index would grow, which
// the reference does not model, so stored state is compared as readers
// see it: after every step each live reference entry is stored in LocT
// with the reference's contents, every LocT entry is stored in the
// reference, and so live ≤ Len ≤ reference Len; after AppendNeighbors,
// which removes every expired entry from both, the lengths are equal.
//
// The "small" arm compares AppendNeighbors at every step. The "top byte"
// arm uses 200 addresses that differ only in their top byte, whose home
// slots collide and whose clusters wrap past the index's last slot; it
// compares AppendNeighbors on about one step in ten, drawn from a
// separate rng, because that call removes expired entries and a sweep at
// every step keeps the clusters too small to exercise removals inside
// them. The test fails if any of those cases never occurred, if no
// lookup removed an entry from the middle of a cluster or from a cluster
// that wraps, if no insert swept before growing, or if no new address
// reused a removed entry.
func TestLocTInPlaceMatchesReference(t *testing.T) {
	const seeds = 20
	arms := []struct {
		name       string
		addrs      int
		steps      int
		sweepEvery int // compare AppendNeighbors on about one step in sweepEvery
		addrOf     func(i int) Address
	}{
		{"small", 6, 2000, 1, func(i int) Address { return Address(1 + i) }},
		{"top byte", 200, 20000, 10, func(i int) Address { return Address(uint64(i) << 56) }},
	}
	var stale, replays, upgrades, dataRefresh, relearnExpired, relearnPurged int
	var midRemovals, wrapRemovals, growSweeps, reused, ties int
	for _, arm := range arms {
		for seed := uint64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0x10c7))
			gate := rand.New(rand.NewPCG(seed, 0x5ee9))
			lt := newLocT(2*time.Second, 300*time.Millisecond)
			ref := newRefLocT(2*time.Second, 300*time.Millisecond)
			lastTS := make([]time.Duration, arm.addrs)
			seen := make([]bool, arm.addrs)
			ever := make(map[*LocTEntry]bool) // every entry LocT ever stored
			now := time.Duration(0)
			for step := 0; step < arm.steps; step++ {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s arm, seed %d step %d: "+format, append([]any{arm.name, seed, step}, args...)...)
				}
				switch r := rng.IntN(100); {
				case r < 2:
					now += 2*time.Second + time.Duration(rng.IntN(1000))*time.Millisecond
				case r < 70:
					now += time.Duration(rng.IntN(150)) * time.Millisecond
				}
				i := rng.IntN(arm.addrs)
				addr := arm.addrOf(i)
				switch op := rng.IntN(100); {
				case op < 75:
					ts := lastTS[i]
					switch k := rng.IntN(100); {
					case k < 15:
						ts -= time.Duration(1+rng.IntN(500)) * time.Millisecond
					case k < 35:
						// Equal timestamp: an immediate replay of the latest PV.
					default:
						ts += time.Duration(1+rng.IntN(200)) * time.Millisecond
						lastTS[i] = ts
					}
					isNeighbor := rng.IntN(100) < 65
					pv := PositionVector{Addr: addr, Timestamp: ts, Pos: geo.Pt(float64(rng.IntN(1000)), 0)}

					var before refEntry
					e, stored := ref.entries[addr]
					if stored {
						before = *e
					}
					prev, n := lt.entries.Get(addr), lt.Len()
					got := lt.Update(pv, now, isNeighbor)
					want := ref.Update(pv, now, isNeighbor)
					if got != want {
						fail("Update(%+v, %v, %v) = %v, reference %v", pv, now, isNeighbor, got, want)
					}
					if e := lt.entries.Get(addr); prev != nil && e != prev {
						fail("stored entry for %d reallocated, want refreshed in place", addr)
					} else if prev == nil {
						if ever[e] {
							reused++
						}
						ever[e] = true
					}
					if lt.Len() < n {
						growSweeps++
					}
					switch {
					case !stored && seen[i]:
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
					seen[i] = true
				case op < 85:
					if e, ok := ref.entries[addr]; ok && now > e.ExpiresAt {
						// This lookup removes the entry: note where it sits.
						mid, wraps, _ := lt.entries.Cluster(addr)
						if mid {
							midRemovals++
						}
						if wraps {
							wrapRemovals++
						}
					}
					got, want := lt.Lookup(addr, now), ref.Lookup(addr, now)
					if (got == nil) != (want == nil) || got != nil && !want.matches(got, ref.ttl) {
						fail("Lookup(%d, %v) = %+v, reference %+v", addr, now, got, want)
					}
				case op < 90:
					dst := geo.Pt(float64(rng.IntN(1000)), 0)
					mod, neighbors := uint64(rng.IntN(4)), rng.IntN(2) == 0
					accept := func(addr Address, isNeighbor bool) bool {
						// Fold the top byte down, so both arms' addresses spread over mod.
						h := uint64(addr) | uint64(addr)>>56
						return (mod == 0 || h%mod != 0) && (!neighbors || isNeighbor)
					}
					got := lt.Closest(dst, now, func(e *LocTEntry, pos geo.Point) bool {
						if pos != e.PV.Pos {
							fail("filter got position %v for an entry at %v", pos, e.PV.Pos)
						}
						return accept(e.PV.Addr, e.NeighborAt(now))
					})
					var best float64
					rivals := 0
					want := ref.Closest(dst, now, func(e *refEntry) bool {
						ok := accept(e.Addr, e.IsNeighbor && now <= e.NeighborUntil)
						if ok {
							if d := e.PV.Pos.DistanceTo(dst); rivals == 0 || d < best {
								best, rivals = d, 1
							} else if d == best {
								rivals++
							}
						}
						return ok
					})
					if (got == nil) != (want == nil) || got != nil && !want.matches(got, ref.ttl) {
						fail("Closest(%v, %v) = %+v, reference %+v", dst, now, got, want)
					}
					if rivals > 1 {
						ties++
					}
				}
				live := 0
				for addr, e := range ref.entries {
					if now > e.ExpiresAt {
						continue
					}
					live++
					if got := lt.entries.Get(addr); got == nil || !e.matches(got, ref.ttl) {
						fail("live entry %d = %+v, reference %+v", addr, got, *e)
					}
				}
				lt.entries.Sweep(func(e *LocTEntry) bool {
					if ref.entries[e.PV.Addr] == nil {
						fail("entry %d stored, not in the reference", e.PV.Addr)
					}
					return true
				})
				if lt.Len() < live || lt.Len() > ref.Len() {
					fail("Len = %d, want between %d live entries and the reference's %d", lt.Len(), live, ref.Len())
				}
				// AppendNeighbors purges; between sparse calls expired
				// entries pile up and grow the clusters that lookups and
				// sweeps remove from.
				if arm.sweepEvery > 1 && gate.IntN(arm.sweepEvery) != 0 {
					continue
				}
				got, want := lt.AppendNeighbors(nil, now), ref.Neighbors(now)
				if len(got) != len(want) {
					fail("%d neighbors, reference %d", len(got), len(want))
				}
				for k := range got {
					if !want[k].matches(got[k], ref.ttl) {
						fail("neighbor %d = %+v, reference %+v", k, *got[k], *want[k])
					}
				}
				if lt.Len() != ref.Len() {
					fail("Len after AppendNeighbors = %d, reference %d", lt.Len(), ref.Len())
				}
			}
		}
	}
	for name, n := range map[string]int{
		"stale PV":                        stale,
		"equal-timestamp replay":          replays,
		"neighbor-flag upgrade":           upgrades,
		"data-packet refresh":             dataRefresh,
		"re-learn, expired":               relearnExpired,
		"re-learn, after purge":           relearnPurged,
		"removal from a cluster's middle": midRemovals,
		"removal from a wrapping cluster": wrapRemovals,
		"sweep before growth":             growSweeps,
		"reuse of a removed entry":        reused,
		"Closest tie":                     ties,
	} {
		if n == 0 {
			t.Errorf("no %s case in the random sequences", name)
		}
	}
	t.Logf("%d mid-cluster and %d wrapping-cluster removals, %d sweeps before growth, %d reused entries, %d Closest ties",
		midRemovals, wrapRemovals, growSweeps, reused, ties)
}
