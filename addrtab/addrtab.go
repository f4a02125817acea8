// Package addrtab is the address-keyed index behind the per-node tables
// of the beacon path: each router's location table and the detector's
// per-source monitor memory. Both probe it on every received frame,
// millions of times per run, so it trades the generality of a Go map for
// a shorter probe.
//
// It is a container, not a simulator layer, so it sits outside internal/:
// the benchmark's per-layer ledger (bench/ledger.go) charges a profile
// sample to its innermost internal/ frame, and from here, as for the Go
// map it replaced, the probe's cost is charged to the layer that probes.
// It is still an implementation detail of the simulator, not a supported
// API: Table.Cluster exists only for tests.
package addrtab

import "math/bits"

// Table maps integer keys (GeoNetworking addresses) to separately
// allocated entries. It is an open-addressed, linear-probing index:
//
//   - A slot holds a key and its entry pointer, 16 bytes; a nil entry
//     marks an empty slot, so every key value, 0 included, is storable.
//   - The slot array's length is a power of two, and a key's home slot is
//     its Fibonacci hash: the top bits of key·2⁶⁴/φ.
//   - The array doubles before an insert would fill more than 7/8 of it,
//     so a probe always ends at an empty slot.
//   - A removal shifts the rest of its cluster back into the freed slot,
//     so there are no tombstones and a probe never walks past a removed
//     key.
//
// The index moves slots, never entries: a *E stays valid and keeps its
// address for as long as the caller keeps it stored. Slot order is an
// artifact of the hash and of the insertion history; callers that need a
// deterministic order sort what Sweep visits.
//
// Keys need no particular distribution. A key set whose home slots
// coincide makes probes as long as the cluster (at worst the table) but
// never changes a result. The zero Table is empty and ready to use; a
// Table is not safe for concurrent use.
type Table[K ~uint64, E any] struct {
	slots []slot[K, E]
	n     int
	shift uint // 64 − log2(len(slots))
}

type slot[K ~uint64, E any] struct {
	key K
	e   *E
}

// minSlots is the slot count of a table's first allocation: 128 bytes,
// room for 7 entries.
const minSlots = 8

// fib is 2⁶⁴/φ, the Fibonacci hashing multiplier.
const fib = 0x9E3779B97F4A7C15

// Len reports the number of stored entries.
func (t *Table[K, E]) Len() int { return t.n }

// find returns the slot holding k, or the empty slot that ends k's probe.
// The table must have slots.
func (t *Table[K, E]) find(k K) int {
	mask := len(t.slots) - 1
	i := int(uint64(k) * fib >> t.shift)
	for {
		s := &t.slots[i]
		if s.e == nil || s.key == k {
			return i
		}
		i = (i + 1) & mask
	}
}

// Get returns the entry stored under k, or nil.
func (t *Table[K, E]) Get(k K) *E {
	if t.n == 0 {
		return nil
	}
	return t.slots[t.find(k)].e
}

// Put stores e under k, replacing the entry stored there, if any. e must
// not be nil.
func (t *Table[K, E]) Put(k K, e *E) {
	if len(t.slots) == 0 {
		t.resize(minSlots)
	}
	i := t.find(k)
	if t.slots[i].e != nil {
		t.slots[i].e = e
		return
	}
	if (t.n+1)*8 > len(t.slots)*7 {
		t.resize(2 * len(t.slots))
		i = t.find(k)
	}
	t.slots[i] = slot[K, E]{key: k, e: e}
	t.n++
}

// Delete removes the entry stored under k, if any.
func (t *Table[K, E]) Delete(k K) {
	if t.n == 0 {
		return
	}
	if i := t.find(k); t.slots[i].e != nil {
		t.removeAt(i)
	}
}

// Sweep calls keep once for every stored entry, in slot order, and
// removes each entry for which keep returns false. keep must not modify
// the table.
func (t *Table[K, E]) Sweep(keep func(e *E) bool) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	// Start just after an empty slot (the load bound guarantees one), so
	// no cluster straddles the sweep's start and end. A removal shifts
	// later, not yet visited, entries of its cluster back into the freed
	// slot, so that slot is examined again; visited entries never move.
	empty := 0
	for t.slots[empty].e != nil {
		empty++
	}
	i := (empty + 1) & mask
	for left := mask; left > 0; {
		if e := t.slots[i].e; e != nil && !keep(e) {
			t.removeAt(i)
			continue
		}
		i = (i + 1) & mask
		left--
	}
}

// removeAt empties slot i and closes the gap: each later entry of the
// cluster moves back into the gap unless that would put it before its
// home slot.
func (t *Table[K, E]) removeAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].e != nil; j = (j + 1) & mask {
		home := int(uint64(t.slots[j].key) * fib >> t.shift)
		// The entry may fill the gap at i unless its home lies cyclically
		// in (i, j].
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[K, E]{}
	t.n--
}

// resize rehashes every entry into a fresh array of n slots, n a power of
// two.
func (t *Table[K, E]) resize(n int) {
	old := t.slots
	t.slots = make([]slot[K, E], n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.e != nil {
			t.slots[t.find(s.key)] = s
		}
	}
}

// Cluster reports, for a stored key, whether the slot after k's is
// occupied (removing k then shifts entries back) and whether k's cluster
// runs past the last slot into the first. ok is false when k is not
// stored. Only tests call it: this package's own, and those of the
// tables built on Table, to show that their removals exercise the
// backward shift.
func (t *Table[K, E]) Cluster(k K) (mid, wraps, ok bool) {
	if t.n == 0 {
		return false, false, false
	}
	i := t.find(k)
	if t.slots[i].e == nil {
		return false, false, false
	}
	last := len(t.slots) - 1
	mid = t.slots[(i+1)&last].e != nil
	// k's cluster wraps when it holds both the last slot and the first.
	if t.slots[0].e != nil && t.slots[last].e != nil {
		lo, hi := i, i
		for lo > 0 && t.slots[lo-1].e != nil {
			lo--
		}
		for hi < last && t.slots[hi+1].e != nil {
			hi++
		}
		wraps = lo == 0 || hi == last
	}
	return mid, wraps, true
}
