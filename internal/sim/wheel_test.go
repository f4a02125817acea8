package sim

import (
	"testing"
	"time"
)

// queueKinds names both scheduler implementations so edge-case tests run
// against each.
var queueKinds = map[string]func() *Engine{"wheel": NewEngine, "heap": newHeapEngine}

// newHeapEngine builds an engine backed by the binary heap instead of the
// timing wheel: the trivially-correct reference the differential tests
// hold the wheel against.
func newHeapEngine() *Engine {
	e := NewEngine()
	e.wheel, e.heap = nil, &eventHeap{}
	return e
}

func TestRunBoundaryInclusive(t *testing.T) {
	for name, newEngine := range queueKinds {
		t.Run(name, func(t *testing.T) {
			e := newEngine()
			fired := 0
			e.Schedule(time.Second, "at-until", func() { fired++ })
			e.Schedule(time.Second+1, "past-until", func() { t.Error("past-until fired") })
			e.Run(time.Second)
			if fired != 1 {
				t.Fatalf("event at exactly until fired %d times, want 1", fired)
			}
			if e.Now() != time.Second {
				t.Fatalf("Now = %v, want 1s", e.Now())
			}
		})
	}
}

func TestScheduleAtNowDuringRun(t *testing.T) {
	for name, newEngine := range queueKinds {
		t.Run(name, func(t *testing.T) {
			e := newEngine()
			var order []string
			e.Schedule(time.Second, "a", func() {
				order = append(order, "a")
				// Zero-delay self-insert: must run at the same timestamp,
				// after the currently executing event, before later ones.
				e.ScheduleAt(e.Now(), "b", func() { order = append(order, "b") })
			})
			e.Schedule(time.Second+time.Nanosecond, "c", func() { order = append(order, "c") })
			e.Run(2 * time.Second)
			if got := len(order); got != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
				t.Fatalf("order = %v, want [a b c]", order)
			}
		})
	}
}

func TestTickerStopFromOwnTick(t *testing.T) {
	for name, newEngine := range queueKinds {
		t.Run(name, func(t *testing.T) {
			e := newEngine()
			var tk *Ticker
			ticks := 0
			tk = e.Every(time.Millisecond, time.Millisecond, "t", func() {
				ticks++
				if ticks == 3 {
					// Stop from inside the tick itself: the reschedule for
					// tick 4 must be canceled, and the Stop must not touch
					// the (already fired) event backing this tick.
					tk.Stop()
					tk.Stop() // double Stop is a no-op
				}
			})
			e.Run(time.Second)
			if ticks != 3 {
				t.Fatalf("ticks = %d, want 3", ticks)
			}
			if e.PendingLive() != 0 {
				t.Fatalf("PendingLive = %d after ticker stopped", e.PendingLive())
			}
		})
	}
}

func TestFarFutureOverflowPromotion(t *testing.T) {
	// Beyond the level-2 horizon (2^50 ns ≈ 13 days) events spill into the
	// overflow heap and must be promoted back into the wheel — in exact
	// order — as the clock approaches.
	e := NewEngine()
	var order []string
	far := 40 * 24 * time.Hour
	e.Schedule(far+time.Millisecond, "f2", func() { order = append(order, "f2") })
	e.Schedule(far, "f1", func() { order = append(order, "f1") })
	e.Schedule(time.Second, "near", func() { order = append(order, "near") })
	if qs := e.QueueStats(); qs.Overflow != 2 {
		t.Fatalf("Overflow = %d, want 2", qs.Overflow)
	}
	e.Run(41 * 24 * time.Hour)
	if len(order) != 3 || order[0] != "near" || order[1] != "f1" || order[2] != "f2" {
		t.Fatalf("order = %v, want [near f1 f2]", order)
	}
	if qs := e.QueueStats(); qs.Overflow != 0 || qs.Live != 0 {
		t.Fatalf("stats not drained: %+v", qs)
	}
}

func TestWheelWrapAroundAfterQuietGap(t *testing.T) {
	// Long quiet gaps force the wheel clock to fast-forward many full
	// level-0 rotations; scheduling afterwards must still place and fire
	// events exactly.
	e := NewEngine()
	var fires []time.Duration
	var chain func(round int)
	chain = func(round int) {
		if round == 5 {
			return
		}
		// ~37 minutes of silence per round: > 2000 level-0 rotations and
		// a couple of level-1 rotations between events.
		e.Schedule(37*time.Minute+time.Duration(round)*time.Microsecond, "hop", func() {
			fires = append(fires, e.Now())
			chain(round + 1)
		})
	}
	chain(0)
	e.Run(6 * time.Hour)
	if len(fires) != 5 {
		t.Fatalf("fired %d hops, want 5", len(fires))
	}
	want := time.Duration(0)
	for i, got := range fires {
		want += 37*time.Minute + time.Duration(i)*time.Microsecond
		if got != want {
			t.Fatalf("hop %d fired at %v, want %v", i, got, want)
		}
	}
}

func TestCancelUnlinksWheelSlot(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(time.Millisecond, "keep1", func() { fired++ })
	mid := e.Schedule(time.Millisecond, "victim", func() { t.Error("canceled event fired") })
	e.Schedule(time.Millisecond, "keep2", func() { fired++ })
	mid.Cancel()
	// Wheel-resident events unlink physically: both counters drop at once.
	if e.Pending() != 2 || e.PendingLive() != 2 {
		t.Fatalf("Pending=%d PendingLive=%d after slot cancel, want 2/2", e.Pending(), e.PendingLive())
	}
	mid.Cancel() // idempotent
	if e.Pending() != 2 || e.PendingLive() != 2 {
		t.Fatalf("Pending=%d PendingLive=%d after a second Cancel, want 2/2", e.Pending(), e.PendingLive())
	}
	e.Run(time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestCancelOverflowLazyReclaim(t *testing.T) {
	e := NewEngine()
	far := 40 * 24 * time.Hour
	ev := e.Schedule(far, "far", func() { t.Error("canceled overflow event fired") })
	ev.Cancel()
	// Overflow cancellation is lazy: physically queued, logically dead.
	if e.Pending() != 1 || e.PendingLive() != 0 {
		t.Fatalf("Pending=%d PendingLive=%d, want 1/0", e.Pending(), e.PendingLive())
	}
	if qs := e.QueueStats(); qs.CanceledPending != 1 {
		t.Fatalf("CanceledPending = %d, want 1", qs.CanceledPending)
	}
	e.Run(far + time.Hour)
	if e.Pending() != 0 {
		t.Fatalf("canceled overflow event not reclaimed: Pending = %d", e.Pending())
	}
}

func TestQueueStatsMaxSlotDepth(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Microsecond, "burst", func() {})
	}
	e.Schedule(50*time.Millisecond, "lone", func() {})
	if qs := e.QueueStats(); qs.MaxSlotDepth != 7 {
		t.Fatalf("MaxSlotDepth = %d, want 7", qs.MaxSlotDepth)
	}
}
