package sim

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"
)

// traceEntry records one executed event for trace-identity comparisons.
type traceEntry struct {
	At  time.Duration
	Tag int
}

// seedGroupWorkload installs a self-perpetuating stochastic workload on e:
// tag streams that reschedule themselves with delays drawn from a private
// RNG (NOT the engine's — mirroring the production rule that scenario
// randomness is per-node), plus a ticker and occasional cancels. Every
// execution appends to the returned trace.
func seedGroupWorkload(e *Engine, seed uint64, streams int) *[]traceEntry {
	trace := &[]traceEntry{}
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	// decoys maps stream tag -> its still-scheduled decoy event. A decoy
	// removes itself on firing, so a handle found in the map is guaranteed
	// scheduled.
	decoys := map[int]Timer{}
	for s := 0; s < streams; s++ {
		tag := s
		var fire func()
		fire = func() {
			*trace = append(*trace, traceEntry{e.Now(), tag})
			d := time.Duration(1+rng.IntN(40)) * time.Millisecond
			e.Schedule(d, "stream", fire)
			// Periodically plant a decoy due a few epochs out and cancel the
			// stream's previous one if it has not fired yet — exercising
			// both cancel-before-epoch-end and cancel-across-epochs.
			if rng.IntN(5) == 0 {
				if old, ok := decoys[tag]; ok {
					old.Cancel()
				}
				decoys[tag] = e.Schedule(3*d+time.Millisecond, "decoy", func() {
					delete(decoys, tag)
					*trace = append(*trace, traceEntry{e.Now(), 100 + tag})
				})
			}
		}
		e.Schedule(time.Duration(s+1)*time.Millisecond, "seed", fire)
	}
	e.Every(10*time.Millisecond, 25*time.Millisecond, "tick", func() {
		*trace = append(*trace, traceEntry{e.Now(), -1})
	})
	return trace
}

// TestGroupEpochSlicingMatchesSingleRun drives one engine through a group
// with a short epoch and a twin engine through a single Engine.Run: the
// execution traces must be element-wise identical — epoch slicing must
// not change which events run, their times, or their order.
func TestGroupEpochSlicingMatchesSingleRun(t *testing.T) {
	const until = 2 * time.Second
	direct := NewEngine(3)
	directTrace := seedGroupWorkload(direct, 99, 5)
	direct.Run(until)

	grouped := NewEngine(3)
	groupedTrace := seedGroupWorkload(grouped, 99, 5)
	g := NewGroup(17*time.Millisecond, grouped) // deliberately not a divisor of until
	g.Run(until)

	if len(*directTrace) == 0 {
		t.Fatal("workload produced no events")
	}
	if !reflect.DeepEqual(*directTrace, *groupedTrace) {
		t.Fatalf("trace divergence: direct %d entries, grouped %d entries", len(*directTrace), len(*groupedTrace))
	}
	if direct.Executed() != grouped.Executed() {
		t.Fatalf("executed: direct %d != grouped %d", direct.Executed(), grouped.Executed())
	}
	if grouped.Now() != until {
		t.Fatalf("grouped engine at %v, want %v", grouped.Now(), until)
	}
}

// TestGroupParallelismIndependence runs the same multi-engine workload
// serially (parallelism 1) and on a worker pool (parallelism 4): per-engine
// traces and the folded event total must be identical. Under -race this is
// also the data-race check on the epoch fan-out.
func TestGroupParallelismIndependence(t *testing.T) {
	const engines = 5
	const until = 1500 * time.Millisecond
	build := func() ([]*Engine, []*[]traceEntry) {
		es := make([]*Engine, engines)
		traces := make([]*[]traceEntry, engines)
		for i := range es {
			es[i] = NewEngine(ShardSeed(42, i))
			traces[i] = seedGroupWorkload(es[i], uint64(1000+i), 3)
		}
		return es, traces
	}

	esSerial, trSerial := build()
	gSerial := NewGroup(100*time.Millisecond, esSerial...)
	gSerial.SetParallelism(1)
	totalSerial := gSerial.Run(until)

	esPar, trPar := build()
	gPar := NewGroup(100*time.Millisecond, esPar...)
	gPar.SetParallelism(4)
	totalPar := gPar.Run(until)

	if totalSerial != totalPar {
		t.Fatalf("event totals: serial %d != parallel %d", totalSerial, totalPar)
	}
	for i := range trSerial {
		if !reflect.DeepEqual(*trSerial[i], *trPar[i]) {
			t.Fatalf("engine %d trace diverged between serial and parallel execution", i)
		}
		if len(*trSerial[i]) == 0 {
			t.Fatalf("engine %d produced no events", i)
		}
	}
}

// TestGroupBarrierHook asserts the hook fires once per epoch, in order,
// with every engine quiescent exactly at the epoch boundary, and that
// barrier-time mutations (scheduling new events) take effect in the next
// epoch.
func TestGroupBarrierHook(t *testing.T) {
	e1 := NewEngine(1)
	e2 := NewEngine(2)
	g := NewGroup(50*time.Millisecond, e1, e2)
	g.SetParallelism(2)

	var barriers []time.Duration
	injected := 0
	g.OnBarrier(func(now time.Duration) {
		for _, e := range g.Engines() {
			if e.Now() != now {
				t.Fatalf("engine not quiescent at barrier: %v != %v", e.Now(), now)
			}
		}
		barriers = append(barriers, now)
		if now == 100*time.Millisecond {
			// Mutate shard state at the barrier: must run next epoch.
			e1.Schedule(10*time.Millisecond, "injected", func() { injected++ })
		}
	})
	g.Run(220 * time.Millisecond)

	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond,
		150 * time.Millisecond, 200 * time.Millisecond, 220 * time.Millisecond,
	}
	if !reflect.DeepEqual(barriers, want) {
		t.Fatalf("barrier times %v, want %v", barriers, want)
	}
	if injected != 1 {
		t.Fatalf("barrier-injected event ran %d times, want 1", injected)
	}
}

// TestGroupRunResumes asserts consecutive Run calls continue cleanly and
// a Run to the current time is a no-op.
func TestGroupRunResumes(t *testing.T) {
	e := NewEngine(7)
	n := 0
	e.Every(10*time.Millisecond, 10*time.Millisecond, "tick", func() { n++ })
	g := NewGroup(100*time.Millisecond, e)
	g.Run(500 * time.Millisecond)
	if n != 50 {
		t.Fatalf("ticks after first Run = %d, want 50", n)
	}
	if got := g.Run(500 * time.Millisecond); got != 0 {
		t.Fatalf("no-op Run executed %d events", got)
	}
	g.Run(1 * time.Second)
	if n != 100 {
		t.Fatalf("ticks after second Run = %d, want 100", n)
	}
}

func TestShardSeedDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for s := 0; s < 1024; s++ {
		v := ShardSeed(12345, s)
		if prev, dup := seen[v]; dup {
			t.Fatalf("ShardSeed collision: shards %d and %d", prev, s)
		}
		seen[v] = s
		if v == 12345 {
			t.Fatalf("ShardSeed(%d, %d) returned the world seed itself", 12345, s)
		}
	}
	if ShardSeed(1, 0) == ShardSeed(2, 0) {
		t.Fatal("ShardSeed ignores the world seed")
	}
}
