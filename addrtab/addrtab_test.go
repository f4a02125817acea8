package addrtab

import (
	"math/rand/v2"
	"testing"
)

// fibInverse is the multiplicative inverse of fib modulo 2⁶⁴: key
// m·fibInverse hashes to m, so such keys pick their home slots exactly.
var fibInverse = func() uint64 {
	x := uint64(fib) // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		x *= 2 - fib*x
	}
	return x
}()

// keySets are the key distributions the table is checked on: spread
// keys, and sets whose home slots collide in every table size, one at
// the first slot and one at the last, so its cluster wraps.
var keySets = []struct {
	name string
	key  func(i int) uint64
}{
	{"random", func(i int) uint64 { return rand.New(rand.NewPCG(uint64(i), 7)).Uint64() }},
	{"sequential", func(i int) uint64 { return uint64(i) }},
	{"top byte", func(i int) uint64 { return uint64(i) << 56 }},
	{"home first", func(i int) uint64 { return uint64(i) * fibInverse }},
	{"home last", func(i int) uint64 { return ^uint64(i) * fibInverse }},
}

// check compares t with the map model: same length, every model key
// found with its entry, and a sweep that keeps everything visits every
// entry exactly once.
func check(t *testing.T, tab *Table[uint64, int], model map[uint64]*int, where string) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("%s: Len = %d, model %d", where, tab.Len(), len(model))
	}
	for k, e := range model {
		if got := tab.Get(k); got != e {
			t.Fatalf("%s: Get(%#x) = %p, model %p", where, k, got, e)
		}
	}
	seen := make(map[*int]bool, len(model))
	tab.Sweep(func(e *int) bool {
		if seen[e] {
			t.Fatalf("%s: sweep visited entry %d twice", where, *e)
		}
		seen[e] = true
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("%s: sweep visited %d entries, model has %d", where, len(seen), len(model))
	}
}

// TestTableMatchesMap drives a Table and a Go map through the same
// seeded random inserts, replacements, finds, removals and sweeps, on
// spread and on colliding keys, and requires the same contents after
// every operation. It fails unless some removal shifted entries back
// from the middle of a cluster and some removal did so in a wrapping
// cluster.
func TestTableMatchesMap(t *testing.T) {
	const (
		seeds = 8
		steps = 3000
		keys  = 300
	)
	var midRemovals, wrapRemovals int
	for _, ks := range keySets {
		for seed := uint64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0xadd7))
			var tab Table[uint64, int]
			model := make(map[uint64]*int)
			// The live key range drifts, so the table grows, drains and
			// refills.
			span := 1 + rng.IntN(keys)
			for step := 0; step < steps; step++ {
				if rng.IntN(200) == 0 {
					span = 1 + rng.IntN(keys)
				}
				k := ks.key(rng.IntN(span))
				switch op := rng.IntN(100); {
				case op < 45:
					e := new(int)
					*e = step
					tab.Put(k, e)
					model[k] = e
				case op < 65:
					if got := tab.Get(k); got != model[k] {
						t.Fatalf("%s seed %d step %d: Get(%#x) = %p, model %p", ks.name, seed, step, k, got, model[k])
					}
				case op < 95:
					if mid, wraps, ok := tab.Cluster(k); ok {
						if mid {
							midRemovals++
						}
						if wraps {
							wrapRemovals++
						}
					}
					tab.Delete(k)
					delete(model, k)
				default:
					// Remove about half the entries, chosen by entry value.
					parity := rng.IntN(2)
					tab.Sweep(func(e *int) bool { return *e%2 != parity })
					for mk, e := range model {
						if *e%2 == parity {
							delete(model, mk)
						}
					}
				}
				check(t, &tab, model, ks.name)
			}
		}
	}
	if midRemovals == 0 {
		t.Error("no removal from the middle of a cluster")
	}
	if wrapRemovals == 0 {
		t.Error("no removal from a wrapping cluster")
	}
}

// TestTableZeroValue: the zero Table is empty and every operation works
// on it, and key 0 is an ordinary key.
func TestTableZeroValue(t *testing.T) {
	var tab Table[uint64, int]
	if tab.Len() != 0 || tab.Get(0) != nil {
		t.Fatal("zero Table not empty")
	}
	tab.Delete(0)
	tab.Sweep(func(*int) bool { t.Fatal("sweep of an empty table visited an entry"); return true })
	if _, _, ok := tab.Cluster(0); ok {
		t.Fatal("Cluster found a key in an empty table")
	}
	e := new(int)
	tab.Put(0, e)
	if tab.Get(0) != e || tab.Len() != 1 {
		t.Fatal("key 0 not stored")
	}
}

// TestTableCluster places keys at chosen home slots of a 16-slot table
// and checks what Cluster reports.
func TestTableCluster(t *testing.T) {
	var tab Table[uint64, int]
	// home(m·fibInverse) in a 16-slot table is the top 4 bits of m.
	at := func(slot, i uint64) uint64 { return (slot<<60 | i) * fibInverse }
	for i := uint64(0); i < 8; i++ {
		tab.Put(at(uint64(i), 0), new(int)) // fills 8 slots: grows to 16
	}
	tab.Delete(at(0, 0))
	tab.Delete(at(1, 0))
	// Slots 2..7 hold one key each; slots 14, 15, 0 hold a cluster that
	// wraps.
	tab.Put(at(14, 0), new(int))
	tab.Put(at(15, 0), new(int))
	tab.Put(at(15, 1), new(int))
	if len(tab.slots) != 16 {
		t.Fatalf("table has %d slots, want 16", len(tab.slots))
	}
	for _, c := range []struct {
		key              uint64
		mid, wraps, good bool
	}{
		{at(14, 0), true, true, true},
		{at(15, 0), true, true, true},
		{at(15, 1), false, true, true}, // displaced into slot 0
		{at(2, 0), true, false, true},
		{at(7, 0), false, false, true},
		{at(3, 1), false, false, false},
	} {
		mid, wraps, ok := tab.Cluster(c.key)
		if mid != c.mid || wraps != c.wraps || ok != c.good {
			t.Errorf("Cluster(%#x) = %v, %v, %v; want %v, %v, %v", c.key, mid, wraps, ok, c.mid, c.wraps, c.good)
		}
	}
	// Removing the cluster's head shifts both displaced keys back.
	tab.Delete(at(14, 0))
	if tab.slots[15].key != at(15, 0) || tab.slots[0].key != at(15, 1) {
		t.Fatalf("after removal slots 15, 0 hold %#x, %#x", tab.slots[15].key, tab.slots[0].key)
	}
	tab.Delete(at(15, 0))
	if tab.slots[15].key != at(15, 1) || tab.slots[0].e != nil {
		t.Fatal("removal did not shift the wrapped key back across the array end")
	}
}

// TestTableAllocs: on a table with room, finds, inserts, replacements,
// removals and sweeps allocate nothing.
func TestTableAllocs(t *testing.T) {
	var tab Table[uint64, int]
	entries := make([]int, 64)
	for i := range entries {
		tab.Put(uint64(i)<<56, &entries[i])
	}
	for i := range entries {
		tab.Delete(uint64(i) << 56)
	}
	drop := 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := range entries {
			tab.Put(uint64(i)<<56, &entries[i])
		}
		for i := range entries {
			if tab.Get(uint64(i)<<56) != &entries[i] {
				t.Fatal("lost an entry")
			}
			tab.Put(uint64(i)<<56, &entries[i])
		}
		for i := 0; i < len(entries); i += 2 {
			tab.Delete(uint64(i) << 56)
		}
		tab.Sweep(func(*int) bool { drop++; return false })
	})
	if allocs != 0 {
		t.Fatalf("warm table allocates %.1f per cycle, want 0", allocs)
	}
	if tab.Len() != 0 || drop == 0 {
		t.Fatalf("after sweeping everything: Len = %d, %d entries visited", tab.Len(), drop)
	}
}
