package geonet

import (
	"math/rand/v2"
	"testing"
	"time"
)

// countStates counts a router's packet states by walking every source's
// chain; r.state.Len() counts sources.
func countStates(r *Router) int {
	n := 0
	r.state.Sweep(func(head *pktState) bool {
		for st := head; st != nil; st = st.next {
			n++
		}
		return true
	})
	return n
}

// chainOf returns src's chain of packet states, newest first.
func chainOf(r *Router, src Address) []*pktState {
	var c []*pktState
	for st := r.state.Get(src); st != nil; st = st.next {
		c = append(c, st)
	}
	return c
}

// TestPacketStateMatchesReference drives a router's per-source chains of
// packet state and a reference Go map keyed by (source, SN), as the
// router kept its states before the chains, through seeded random
// sequences of packet copies (first copies and duplicates), clock steps,
// custody and arm holds set and cleared, and purges. The "one source"
// and "few sources" arms build long chains, the "many sources" arm many
// short ones. It requires that:
//
//   - stateFor returns the reference's state for a key until a purge
//     removes it, and puts a new state at the head of its source;
//   - the chains hold exactly the reference's states after every step;
//   - a purge never removes a state that is unexpired or held (custody
//     or an armed contention);
//   - a purge removes every purgeable state, except the head of a source
//     that still keeps an unexpired or held state behind it.
//
// The test fails if no purge unlinked a state from the middle of a chain,
// kept a purgeable head, dropped a whole source, or stopped at its gate.
func TestPacketStateMatchesReference(t *testing.T) {
	const (
		seeds = 10
		steps = 3000
	)
	arms := []struct {
		name         string
		sources, sns int
	}{
		{"one source", 1, 8},
		{"few sources", 3, 12},
		{"many sources", 300, 3},
	}
	held := &cbfArm{} // stands for an armed contention; purges only test for nil
	purgeable := func(st *pktState, now time.Duration) bool {
		return now > st.expires && !st.custody && st.cbfArm == nil
	}
	var midUnlinks, keptHeads, droppedSources, gated int
	for _, arm := range arms {
		for seed := uint64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0x57a7e))
			r, engine, _ := testReceiver(nil)
			ref := make(map[Key]*pktState)
			var live []Key // ref's keys in insertion order, for seeded picks
			now := time.Duration(0)
			for step := 0; step < steps; step++ {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s arm, seed %d step %d: "+format, append([]any{arm.name, seed, step}, args...)...)
				}
				switch op := rng.IntN(100); {
				case op < 55:
					k := Key{Src: Address(1 + rng.IntN(arm.sources)), SN: uint16(rng.IntN(arm.sns))}
					p := &Packet{
						Basic:    BasicHeader{LifetimeMs: uint32(200 + rng.IntN(3000))},
						SN:       k.SN,
						SourcePV: PositionVector{Addr: k.Src, Timestamp: now - time.Duration(rng.IntN(500))*time.Millisecond},
					}
					got := r.stateFor(p)
					if want, ok := ref[k]; ok {
						if got != want {
							fail("stateFor(%+v) returned a state other than the one it holds", k)
						}
						break
					}
					for _, st := range ref {
						if st == got {
							fail("stateFor(%+v) returned another packet's state", k)
						}
					}
					if got.expires != p.SourcePV.Timestamp+p.lifetime() || got.sn != k.SN {
						fail("new state for %+v: expires %v, sn %d", k, got.expires, got.sn)
					}
					if r.state.Get(k.Src) != got {
						fail("new state for %+v is not its source's head", k)
					}
					ref[k] = got
					live = append(live, k)
				case op < 75:
					if len(live) > 0 {
						st := ref[live[rng.IntN(len(live))]]
						switch h := rng.IntN(5); {
						case h < 2:
							st.custody = true
						case h < 4:
							st.cbfArm = held
						default:
							st.custody, st.cbfArm = false, nil
						}
					}
				case op < 90:
					// Holds are brief, as custody and contentions are: each
					// clock step releases about half of them.
					now += time.Duration(rng.IntN(1200)) * time.Millisecond
					engine.Run(now)
					for _, k := range live {
						if st := ref[k]; rng.IntN(2) == 0 {
							st.custody, st.cbfArm = false, nil
						}
					}
				default:
					before := make([][]*pktState, arm.sources)
					for i := range before {
						before[i] = chainOf(r, Address(1+i))
					}
					if now <= r.purgeAt {
						gated++
					}
					r.purgeStates()
					kept := make(map[*pktState]bool)
					for i := range before {
						for _, st := range chainOf(r, Address(1+i)) {
							kept[st] = true
						}
					}
					for _, c := range before {
						if len(c) == 0 {
							continue
						}
						keepsOne := false // an unexpired or held state behind the head
						for _, st := range c[1:] {
							keepsOne = keepsOne || !purgeable(st, now)
						}
						dropped := !kept[c[0]]
						if dropped {
							droppedSources++
						}
						for i, st := range c {
							switch {
							case !kept[st] && !purgeable(st, now):
								fail("purge removed a state that is unexpired or held: %+v", *st)
							case kept[st] && purgeable(st, now) && (i > 0 || !keepsOne):
								fail("purge kept a purgeable state at chain position %d of %d: %+v", i, len(c), *st)
							case kept[st] && purgeable(st, now):
								keptHeads++
							case !kept[st] && i > 0 && i < len(c)-1 && !dropped:
								midUnlinks++
							}
						}
					}
					n := 0
					for _, k := range live {
						if kept[ref[k]] {
							live[n] = k
							n++
						} else {
							delete(ref, k)
						}
					}
					live = live[:n]
				}
				if got := countStates(r); got != len(ref) {
					fail("chains hold %d states, reference %d", got, len(ref))
				}
				for i := 0; i < arm.sources; i++ {
					for _, st := range chainOf(r, Address(1+i)) {
						if k := (Key{Src: Address(1 + i), SN: st.sn}); ref[k] != st {
							fail("chains hold a state the reference does not: %+v", k)
						}
					}
				}
			}
		}
	}
	for name, n := range map[string]int{
		"unlink from a chain's middle":          midUnlinks,
		"purgeable head kept for an older hold": keptHeads,
		"source dropped whole":                  droppedSources,
		"purge stopped by its gate":             gated,
	} {
		if n == 0 {
			t.Errorf("no %s in the random sequences", name)
		}
	}
	t.Logf("%d mid-chain unlinks, %d kept heads, %d sources dropped, %d gated purges", midUnlinks, keptHeads, droppedSources, gated)
}

// TestPacketStateAllocs pins the state lookup's allocations: a duplicate
// of a held packet allocates nothing, and the first copy of a new packet
// from a known source allocates exactly its pktState.
func TestPacketStateAllocs(t *testing.T) {
	const sources = 64
	r, _, _ := testReceiver(nil)
	p := &Packet{Basic: BasicHeader{LifetimeMs: 60000}}
	for src := 1; src <= sources; src++ {
		p.SourcePV.Addr = Address(src)
		r.stateFor(p)
	}
	k := 0
	dup := testing.AllocsPerRun(1000, func() {
		p.SourcePV.Addr = Address(1 + k%sources)
		k++
		r.stateFor(p)
	})
	if dup != 0 {
		t.Errorf("duplicate lookup allocates %.2f/op, want 0", dup)
	}
	k = 0
	first := testing.AllocsPerRun(1000, func() {
		p.SourcePV.Addr, p.SN = Address(1+k%sources), uint16(1+k/sources)
		k++
		r.stateFor(p)
	})
	if first != 1 {
		t.Errorf("first copy of a new packet allocates %.2f/op, want 1 (its pktState)", first)
	}
	if n := countStates(r); n != sources+1001 {
		t.Fatalf("%d states after %d first copies, want %d", n, 1001, sources+1001)
	}
}
