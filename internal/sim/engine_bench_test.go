package sim

import (
	"fmt"
	"testing"
	"time"
)

// benchDelays is a fixed pseudorandom delay mix biased to the event
// horizon of a real run: mostly sub-5ms (radio latency, CBF contention),
// some beacon-period scale, a trickle of level-1 territory.
var benchDelays = func() [1024]time.Duration {
	var ds [1024]time.Duration
	state := uint64(0x9E3779B97F4A7C15)
	for i := range ds {
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 33
		switch {
		case i%16 == 0:
			ds[i] = time.Duration(r % uint64(2*time.Second)) // level 1
		case i%4 == 0:
			ds[i] = time.Duration(r % uint64(150*time.Millisecond))
		default:
			ds[i] = time.Duration(r % uint64(5*time.Millisecond))
		}
	}
	return ds
}()

// BenchmarkEngineSchedule measures the steady-state schedule→fire cycle of
// handle-returning events on both queue implementations, across pending-
// queue sizes matching the 1k/10k/100k world populations (one beacon timer
// per router stays queued at all times). Each fired event schedules its
// successor, so the queue holds `inflight` events throughout and every op
// is one push plus one pop. Allocations must be zero: fired handles
// recycle through the engine pool. The heap's per-op cost grows with
// log(inflight) and its cache misses; the wheel's stays flat.
func BenchmarkEngineSchedule(b *testing.B) {
	for _, inflight := range []int{1_000, 10_000, 100_000} {
		for name, newEngine := range queueKinds {
			b.Run(fmt.Sprintf("%s/pending=%d", name, inflight), func(b *testing.B) {
				benchCycle(b, newEngine, inflight)
			})
		}
	}
}

func benchCycle(b *testing.B, newEngine func() *Engine, inflight int) {
	e := newEngine()
	left := b.N
	i := 0
	var fn func()
	schedule := func() {
		i++
		e.Schedule(benchDelays[i&1023], "bench", fn)
	}
	fn = func() {
		if left > 0 {
			left--
			schedule()
		}
	}
	// Warm the pool and reach steady state before measuring.
	for k := 0; k < inflight; k++ {
		e.Schedule(benchDelays[k&1023], "warm", fn)
	}
	e.Run(time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(1 << 62)
	b.StopTimer()
	if left != 0 {
		b.Fatalf("only executed %d of %d scheduled events", b.N-left, b.N)
	}
}

// BenchmarkEngineCancel measures the cancel-heavy pattern CBF contention
// produces: schedule a timer, cancel it before it fires, repeat. On the
// wheel this is an O(1) unlink that recycles the object at once (0
// allocs/op); on the heap a lazy mark that is reclaimed at the deadline.
func BenchmarkEngineCancel(b *testing.B) {
	for name, newEngine := range queueKinds {
		b.Run(name, func(b *testing.B) {
			e := newEngine()
			tick := e.Every(time.Millisecond, time.Millisecond, "drain", func() {})
			defer tick.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := e.Schedule(benchDelays[i&1023], "victim", func() {})
				ev.Cancel()
				if i%1024 == 1023 {
					// Let the engine advance so heap-mode lazy reclamation
					// actually runs and the queue cannot grow unboundedly.
					e.Run(e.Now() + 10*time.Millisecond)
				}
			}
		})
	}
}
