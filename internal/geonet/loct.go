package geonet

import (
	"time"

	"github.com/vanetsec/georoute/addrtab"
	"github.com/vanetsec/georoute/internal/geo"
)

// LocTEntry is one neighbor record: (addr, PV, TTL) as in the paper's
// description of the standard's location table. The address is PV.Addr.
// The entry is 64 bytes, one cache line in the allocator's 64-byte size
// class; TestLocTEntrySizeClass pins it.
type LocTEntry struct {
	PV        PositionVector
	ExpiresAt time.Duration // last refresh + TTL
	// NeighborUntil carries the standard's IS_NEIGHBOUR flag and bounds it
	// in time. The flag is set when the PV came from a single-hop packet
	// (a beacon), and GF only considers entries that have it. Crucially it
	// is set from the PACKET TYPE, not from any check that the link-layer
	// sender is the PV owner — which is why a replayed beacon makes an
	// out-of-range vehicle look like a neighbor. A negative value means
	// the flag is clear.
	//
	// The time bound follows deployed stacks, which let IS_NEIGHBOUR lapse
	// after a missed beacon round or two rather than keeping a silent
	// station eligible as a next hop for the whole entry TTL. The attack
	// is unaffected — the attacker re-relays every fresh beacon, so
	// poisoned entries stay "neighbors" continuously.
	NeighborUntil time.Duration
}

// notNeighbor is the NeighborUntil of an entry without IS_NEIGHBOUR.
const notNeighbor time.Duration = -1

// NeighborAt reports whether the entry counts as a direct neighbor for
// forwarding decisions at time now. Simulated time is never negative, so
// a cleared flag never counts.
func (e *LocTEntry) NeighborAt(now time.Duration) bool {
	return now <= e.NeighborUntil
}

// LocT is the location table: the per-router view of its neighborhood,
// populated from received beacons and from the source position vectors of
// forwarded packets. Entries expire after the configured TTL (default
// 20 s per the standard).
//
// Index: an addrtab.Table of 16-byte slots, each an address and a pointer
// to its separately allocated LocTEntry, linear-probed from the address's
// Fibonacci hash and grown by doubling above 7/8 load. The entries stay
// separate objects because receivers learn a source in reception order,
// so the entries of one source sit next to each other in memory and the
// next frame from that source refreshes them in the same order; entries
// inlined into the slots would scatter them. Slot order never reaches an
// output: enumeration sorts by address.
//
// Entry lifetime: Update overwrites a stored *LocTEntry in place, and the
// index moves only slots, so a pointer handed out by Lookup,
// AppendNeighbors or Closest is a view that is valid only within the
// current event — until the next Update of that address. Callers read it
// and drop it (the greedy and GPSR next-hop walks, the CBF contention
// timers, next-hop acceptance filters); none may retain it across an
// Update, and one that needs a snapshot copies the value.
type LocT struct {
	ttl         time.Duration
	neighborTTL time.Duration
	entries     addrtab.Table[Address, LocTEntry]
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
	return &LocT{ttl: ttl, neighborTTL: neighborTTL}
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
	e := t.entries.Get(pv.Addr)
	ok := e != nil
	if ok && now <= e.ExpiresAt && pv.Timestamp <= e.PV.Timestamp {
		if pv.Timestamp < e.PV.Timestamp {
			// A strictly older PV is a stale replay; it neither updates
			// the position nor proves current radio contact.
			return false
		}
		if isNeighbor {
			// A cleared flag is negative, so setting it always counts
			// as a change.
			if until := now + t.neighborTTL; until > e.NeighborUntil {
				e.NeighborUntil = until
				return true
			}
		}
		return false
	}
	neighborUntil := notNeighbor
	if ok && now <= e.ExpiresAt {
		neighborUntil = e.NeighborUntil
	}
	if isNeighbor {
		neighborUntil = now + t.neighborTTL
	}
	if !ok {
		e = new(LocTEntry)
		t.entries.Put(pv.Addr, e)
	}
	*e = LocTEntry{
		PV:            pv,
		ExpiresAt:     now + t.ttl,
		NeighborUntil: neighborUntil,
	}
	return true
}

// Lookup returns the live entry for addr, or nil.
func (t *LocT) Lookup(addr Address, now time.Duration) *LocTEntry {
	e := t.entries.Get(addr)
	if e == nil {
		return nil
	}
	if now > e.ExpiresAt {
		t.entries.Delete(addr)
		return nil
	}
	return e
}

// Len reports the number of stored entries including not-yet-purged
// expired ones.
func (t *LocT) Len() int { return t.entries.Len() }

// Purge drops expired entries.
func (t *LocT) Purge(now time.Duration) {
	t.entries.Sweep(func(e *LocTEntry) bool { return now <= e.ExpiresAt })
}

// AppendNeighbors appends the live entries to dst in address order
// (deterministic iteration for reproducible runs), purging expired ones,
// and returns the extended slice. Callers reuse a scratch buffer, so
// forwarding strategies enumerate the neighborhood on every hop without
// allocating. The entries are shared; callers must not mutate them, and
// they change under the caller on the next Update (see the
// entry-lifetime note on LocT).
func (t *LocT) AppendNeighbors(dst []*LocTEntry, now time.Duration) []*LocTEntry {
	start := len(dst)
	t.entries.Sweep(func(e *LocTEntry) bool {
		if now > e.ExpiresAt {
			return false
		}
		dst = append(dst, e)
		return true
	})
	// Insertion sort instead of sort.Slice: the appended window is small
	// (a radio neighborhood) and sort.Slice's closure would allocate on
	// every forwarding decision.
	live := dst[start:]
	for i := 1; i < len(live); i++ {
		e := live[i]
		j := i - 1
		for j >= 0 && live[j].PV.Addr > e.PV.Addr {
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
