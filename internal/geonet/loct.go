package geonet

import (
	"time"

	"github.com/vanetsec/georoute/internal/geo"
)

// LocTEntry is one neighbor record: (addr, PV, TTL) as in the paper's
// description of the standard's location table.
type LocTEntry struct {
	Addr      Address
	PV        PositionVector
	UpdatedAt time.Duration // when the entry was last refreshed
	ExpiresAt time.Duration // UpdatedAt + TTL
	// IsNeighbor mirrors the standard's IS_NEIGHBOUR flag: set when the PV
	// came from a single-hop packet (a beacon). GF only considers entries
	// with this flag. Crucially it is set from the PACKET TYPE, not from
	// any check that the link-layer sender is the PV owner — which is why
	// a replayed beacon makes an out-of-range vehicle look like a
	// neighbor.
	IsNeighbor bool
	// NeighborUntil bounds the neighbor status in time: deployed stacks
	// let IS_NEIGHBOUR lapse after a missed beacon round or two rather
	// than keeping a silent station eligible as a next hop for the whole
	// entry TTL. The attack is unaffected — the attacker re-relays every
	// fresh beacon, so poisoned entries stay "neighbors" continuously.
	NeighborUntil time.Duration
}

// NeighborAt reports whether the entry counts as a direct neighbor for
// forwarding decisions at time now.
func (e *LocTEntry) NeighborAt(now time.Duration) bool {
	return e.IsNeighbor && now <= e.NeighborUntil
}

// LocT is the location table: the per-router view of its neighborhood,
// populated from received beacons and from the source position vectors of
// forwarded packets. Entries expire after the configured TTL (default
// 20 s per the standard).
//
// Entry lifetime: Update overwrites a stored *LocTEntry in place, so a
// pointer handed out by Lookup, Neighbors, AppendNeighbors or Closest is
// a view that is valid only within the current event — until the next
// Update of that address. Callers read it and drop it (the greedy and
// GPSR next-hop walks, the CBF contention timers, the location-service
// shortcut, next-hop acceptance filters); none may retain it across an
// Update, and one that needs a snapshot copies the value.
type LocT struct {
	ttl         time.Duration
	neighborTTL time.Duration
	entries     map[Address]*LocTEntry
	// scratch is the reused enumeration buffer behind Closest, keeping
	// per-forwarding-decision neighbor walks allocation-free once warm.
	scratch []*LocTEntry
}

// DefaultLocTTTL is the standard's default lifetime of a location table
// entry.
const DefaultLocTTTL = 20 * time.Second

// NewLocT constructs a location table with the given entry TTL and
// neighbor-status lifetime. A neighborTTL of zero keeps neighbor status
// for the whole entry TTL (the literal standard behavior).
func NewLocT(ttl, neighborTTL time.Duration) *LocT {
	if ttl == 0 {
		ttl = DefaultLocTTTL
	}
	if neighborTTL == 0 || neighborTTL > ttl {
		neighborTTL = ttl
	}
	return &LocT{ttl: ttl, neighborTTL: neighborTTL, entries: make(map[Address]*LocTEntry)}
}

// TTL reports the configured entry lifetime.
func (t *LocT) TTL() time.Duration { return t.ttl }

// Update inserts or refreshes the entry for pv.Addr. A PV older than the
// stored one is ignored (beacon timestamps provide freshness; note that
// an immediate replay carries the *latest* timestamp and is accepted —
// the paper's point). isNeighbor marks single-hop receptions: it grants
// neighbor status until now + neighborTTL, and a refresh from a
// non-neighbor source (a forwarded data packet's PV) keeps a live
// entry's current NeighborUntil rather than extending or clearing it.
// Once an entry expires its neighbor status goes with it. It reports
// whether the table changed.
//
// A stored entry is refreshed in place, so the per-beacon refresh — the
// simulator's hottest operation — allocates nothing; only an address
// learned for the first time (or again after a purge) gets a new entry.
func (t *LocT) Update(pv PositionVector, now time.Duration, isNeighbor bool) bool {
	e, ok := t.entries[pv.Addr]
	if ok && now <= e.ExpiresAt && pv.Timestamp <= e.PV.Timestamp {
		if pv.Timestamp < e.PV.Timestamp {
			// A strictly older PV is a stale replay; it neither updates
			// the position nor proves current radio contact.
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
	if !ok {
		e = new(LocTEntry)
		t.entries[pv.Addr] = e
	}
	*e = LocTEntry{
		Addr:          pv.Addr,
		PV:            pv,
		UpdatedAt:     now,
		ExpiresAt:     now + t.ttl,
		IsNeighbor:    isNeighbor || wasNeighbor,
		NeighborUntil: neighborUntil,
	}
	return true
}

// Lookup returns the live entry for addr, or nil.
func (t *LocT) Lookup(addr Address, now time.Duration) *LocTEntry {
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

// Len reports the number of stored entries including not-yet-purged
// expired ones.
func (t *LocT) Len() int { return len(t.entries) }

// Purge drops expired entries.
func (t *LocT) Purge(now time.Duration) {
	for addr, e := range t.entries {
		if now > e.ExpiresAt {
			delete(t.entries, addr)
		}
	}
}

// Neighbors returns the live entries sorted by address (deterministic
// iteration for reproducible runs). The entries are shared; callers must
// not mutate them, and they change under the caller on the next Update
// (see the entry-lifetime note on LocT).
func (t *LocT) Neighbors(now time.Duration) []*LocTEntry {
	return t.AppendNeighbors(make([]*LocTEntry, 0, len(t.entries)), now)
}

// AppendNeighbors appends the live entries to dst in address order,
// purging expired ones, and returns the extended slice. It is the
// allocation-free counterpart of Neighbors for callers that reuse a
// scratch buffer (forwarding strategies enumerate the neighborhood on
// every hop). The entries are shared; callers must not mutate them.
func (t *LocT) AppendNeighbors(dst []*LocTEntry, now time.Duration) []*LocTEntry {
	start := len(dst)
	for addr, e := range t.entries {
		if now > e.ExpiresAt {
			delete(t.entries, addr)
			continue
		}
		dst = append(dst, e)
	}
	// Insertion sort instead of sort.Slice: the appended window is small
	// (a radio neighborhood) and sort.Slice's closure would allocate on
	// every forwarding decision.
	live := dst[start:]
	for i := 1; i < len(live); i++ {
		e := live[i]
		j := i - 1
		for j >= 0 && live[j].Addr > e.Addr {
			live[j+1] = live[j]
			j--
		}
		live[j+1] = e
	}
	return dst
}

// Closest returns the live entry whose ADVERTISED position is nearest to
// dst, restricted to entries accepted by filter (nil accepts all) — the
// paper's literal GF: "chooses the neighbor closest to the destination
// area based on position information advertised in the beacons". The
// filter receives the advertised position for convenience. It returns nil
// when the table has no acceptable live entries.
func (t *LocT) Closest(dst geo.Point, now time.Duration, filter func(e *LocTEntry, pos geo.Point) bool) *LocTEntry {
	var best *LocTEntry
	bestDist := 0.0
	t.scratch = t.AppendNeighbors(t.scratch[:0], now)
	for _, e := range t.scratch {
		pos := e.PV.Pos
		if filter != nil && !filter(e, pos) {
			continue
		}
		d := pos.DistanceTo(dst)
		if best == nil || d < bestDist {
			best = e
			bestDist = d
		}
	}
	return best
}
