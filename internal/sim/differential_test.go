package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// handleBox tracks a Schedule handle plus whether it already fired, so the
// workload cancels only handles that have not fired. Canceled handles may
// be canceled again after their object was reused: the generation fence
// must turn that into a no-op on both queues.
type handleBox struct {
	ev    Timer
	fired bool
}

// driveWorkload runs one randomized self-scheduling workload on the given
// queue implementation and returns the exact execution trace. Both
// implementations see identical randomness: callbacks draw from the shared
// rng in execution order, so as long as the traces match, the draws match.
// Any ordering divergence makes the traces differ and fails the test.
func driveWorkload(seed int64, newEngine func(uint64) *Engine) (trace []string, executed uint64, pendLive int) {
	eng := newEngine(7)
	rng := rand.New(rand.NewSource(seed))
	var boxes []*handleBox
	nextID := 0

	var spawn func(depth int)
	spawn = func(depth int) {
		nextID++
		id := nextID
		// Delay mix crossing every wheel structure: same-tick, level 0,
		// level 1, level 2 and the overflow heap.
		var delay time.Duration
		switch rng.Intn(12) {
		case 0:
			delay = 0 // self-insert at the current instant
		case 1, 2, 3:
			delay = time.Duration(rng.Intn(200_000)) // sub-tick, ns
		case 4, 5, 6:
			delay = time.Duration(rng.Intn(1000)) * time.Millisecond
		case 7, 8, 9:
			delay = time.Duration(rng.Intn(300)) * time.Second
		case 10:
			delay = time.Duration(rng.Intn(3)) * time.Hour
		case 11:
			// Far future: beyond the 13-day level-2 horizon half the time.
			delay = time.Duration(rng.Intn(30)+1) * 24 * time.Hour
		}
		box := &handleBox{}
		fn := func() {
			box.fired = true
			trace = append(trace, fmt.Sprintf("%d@%d", id, eng.Now()))
			if depth < 4 && rng.Intn(3) > 0 {
				spawn(depth + 1)
			}
			if len(boxes) > 0 && rng.Intn(4) == 0 {
				if b := boxes[rng.Intn(len(boxes))]; !b.fired {
					b.ev.Cancel()
				}
			}
		}
		if rng.Intn(3) == 0 {
			box.fired = true // fire-and-forget: the handle is dropped
			eng.Schedule(delay, "t", fn)
		} else {
			box.ev = eng.Schedule(delay, "s", fn)
			boxes = append(boxes, box)
		}
	}

	for i := 0; i < 300; i++ {
		spawn(0)
	}
	for i := 0; i < 6; i++ {
		id := i
		ticks := 0
		var tk *Ticker
		tk = eng.Every(time.Duration(id+1)*37*time.Millisecond, 777*time.Millisecond, "tick", func() {
			ticks++
			trace = append(trace, fmt.Sprintf("T%d#%d@%d", id, ticks, eng.Now()))
			if ticks == 200+id {
				tk.Stop()
			}
		})
	}
	eng.Run(36 * time.Hour)
	return trace, eng.Executed(), eng.PendingLive()
}

// TestDifferentialHeapWheel is the scheduler equivalence property test:
// random self-scheduling workloads (with cancellations, tickers, bursts at
// identical timestamps and far-future overflow traffic) must execute in
// exactly the same order on the timing wheel as on the reference binary
// heap. Runs under -race in CI.
func TestDifferentialHeapWheel(t *testing.T) {
	seeds := []int64{1, 2, 3, 42, 1337}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			wheelTrace, wheelExec, wheelPend := driveWorkload(seed, NewEngine)
			heapTrace, heapExec, heapPend := driveWorkload(seed, newHeapEngine)
			if wheelExec != heapExec {
				t.Fatalf("executed: wheel %d, heap %d", wheelExec, heapExec)
			}
			if wheelPend != heapPend {
				t.Fatalf("PendingLive: wheel %d, heap %d", wheelPend, heapPend)
			}
			if len(wheelTrace) != len(heapTrace) {
				t.Fatalf("trace lengths differ: wheel %d, heap %d", len(wheelTrace), len(heapTrace))
			}
			for i := range wheelTrace {
				if wheelTrace[i] != heapTrace[i] {
					t.Fatalf("traces diverge at %d: wheel %q, heap %q", i, wheelTrace[i], heapTrace[i])
				}
			}
		})
	}
}
