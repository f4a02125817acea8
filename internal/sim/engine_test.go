package sim

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(3*time.Second, "c", func() { order = append(order, "c") })
	e.Schedule(1*time.Second, "a", func() { order = append(order, "a") })
	e.Schedule(2*time.Second, "b", func() { order = append(order, "b") })
	e.Run(10 * time.Second)
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(time.Second, "tie", func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("same-time events not FIFO at %d: got %d", i, got)
		}
	}
}

func TestNowAdvancesDuringEvents(t *testing.T) {
	e := NewEngine(1)
	var at time.Duration
	e.Schedule(1500*time.Millisecond, "probe", func() { at = e.Now() })
	e.Run(2 * time.Second)
	if at != 1500*time.Millisecond {
		t.Fatalf("Now inside event = %v, want 1.5s", at)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now after Run = %v, want 2s", e.Now())
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(1*time.Second, "in", func() { ran++ })
	e.Schedule(5*time.Second, "out", func() { ran++ })
	n := e.Run(2 * time.Second)
	if n != 1 || ran != 1 {
		t.Fatalf("Run executed %d events (ran=%d), want 1", n, ran)
	}
	// Resume picks up the remaining event.
	n = e.Run(10 * time.Second)
	if n != 1 || ran != 2 {
		t.Fatalf("second Run executed %d events (ran=%d), want 1 more", n, ran)
	}
}

func TestEventAtBoundaryRuns(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(2*time.Second, "edge", func() { ran = true })
	e.Run(2 * time.Second)
	if !ran {
		t.Fatal("event at exactly `until` must run")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ev := e.Schedule(time.Second, "x", func() { ran = true })
	ev.Cancel()
	e.Run(2 * time.Second)
	if ran {
		t.Fatal("canceled event ran")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() must report true")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	// A CBF-style pattern: an earlier event cancels a pending timer.
	e := NewEngine(1)
	fired := false
	timer := e.Schedule(100*time.Millisecond, "timer", func() { fired = true })
	e.Schedule(10*time.Millisecond, "duplicate", func() { timer.Cancel() })
	e.Run(time.Second)
	if fired {
		t.Fatal("timer fired despite cancellation")
	}
}

func TestScheduleInsideEvent(t *testing.T) {
	e := NewEngine(1)
	var times []time.Duration
	e.Schedule(time.Second, "outer", func() {
		e.Schedule(500*time.Millisecond, "inner", func() {
			times = append(times, e.Now())
		})
	})
	e.Run(5 * time.Second)
	if len(times) != 1 || times[0] != 1500*time.Millisecond {
		t.Fatalf("nested schedule fired at %v, want [1.5s]", times)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewEngine(1).Schedule(-time.Second, "bad", func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, "advance", func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.ScheduleAt(500*time.Millisecond, "past", func() {})
	})
	e.Run(2 * time.Second)
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	var ticks []time.Duration
	e.Every(time.Second, 2*time.Second, "tick", func() {
		ticks = append(ticks, e.Now())
	})
	e.Run(8 * time.Second)
	want := []time.Duration{1 * time.Second, 3 * time.Second, 5 * time.Second, 7 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tk *Ticker
	tk = e.Every(0, time.Second, "tick", func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run(10 * time.Second)
	if count != 3 {
		t.Fatalf("ticker ran %d times after Stop at 3", count)
	}
}

func TestTickerStopBeforeFirstTick(t *testing.T) {
	e := NewEngine(1)
	count := 0
	tk := e.Every(time.Second, time.Second, "tick", func() { count++ })
	tk.Stop()
	e.Run(5 * time.Second)
	if count != 0 {
		t.Fatalf("stopped ticker ran %d times", count)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Second, "first", func() {
		ran++
		e.Stop()
	})
	e.Schedule(2*time.Second, "second", func() { ran++ })
	e.Run(10 * time.Second)
	if ran != 1 {
		t.Fatalf("ran = %d after Stop, want 1", ran)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() must be true")
	}
}

func TestDeterminism(t *testing.T) {
	trace := func(seed uint64) []time.Duration {
		e := NewEngine(seed)
		var out []time.Duration
		var step func()
		step = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				jitter := time.Duration(e.Rand().Int64N(int64(time.Second)))
				e.Schedule(jitter, "step", step)
			}
		}
		e.Schedule(0, "start", step)
		e.Run(time.Hour)
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical stochastic traces")
	}
}

func TestExecutedAndPending(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, "ev", func() {})
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	e.Run(4 * time.Second)
	if e.Executed() != 5 { // events at 0..4s inclusive
		t.Fatalf("Executed = %d, want 5", e.Executed())
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
}

func TestHeapOrderingProperty(t *testing.T) {
	// Property: any multiset of delays executes in non-decreasing time order.
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var seen []time.Duration
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, "p", func() {
				seen = append(seen, e.Now())
			})
		}
		e.Run(time.Hour)
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDroppedHandleOrderingAndRecycling(t *testing.T) {
	// Fire-and-forget events (handle dropped) interleave with regular
	// events in (time, schedule) order, and the engine recycles their
	// objects without disturbing it.
	e := NewEngine(1)
	var got []int
	for round := 0; round < 3; round++ {
		round := round
		e.Schedule(time.Duration(round)*time.Millisecond, "regular", func() {
			got = append(got, round*10)
		})
		e.Schedule(time.Duration(round)*time.Millisecond, "dropped", func() {
			got = append(got, round*10+1)
		})
		e.Schedule(time.Duration(round)*time.Millisecond, "dropped", func() {
			got = append(got, round*10+2)
		})
	}
	e.Run(time.Second)
	want := []int{0, 1, 2, 10, 11, 12, 20, 21, 22}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if len(e.free) == 0 {
		t.Fatal("fired events were not recycled")
	}
}

func TestNegativeDelayPanicsWithWarmPool(t *testing.T) {
	// A recycled object waiting in the pool must not let a negative delay
	// slip through.
	e := NewEngine(1)
	e.Schedule(time.Millisecond, "warm", func() {})
	e.Run(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	e.Schedule(-time.Second, "bad", func() {})
}

func TestScheduleReusesPooledEvents(t *testing.T) {
	// Sequential rounds should settle into reusing one pooled object
	// instead of allocating per call.
	e := NewEngine(1)
	ran := 0
	for i := 0; i < 100; i++ {
		e.Schedule(time.Millisecond, "t", func() { ran++ })
		e.Run(e.Now() + 2*time.Millisecond)
	}
	if ran != 100 {
		t.Fatalf("ran %d events, want 100", ran)
	}
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d events, want 1 steady-state object", len(e.free))
	}
}

// TestStaleFiredHandleCannotCancel: once a fired event's object is
// reused by a later Schedule, Cancel through the old handle must leave
// the later event alone.
func TestStaleFiredHandleCannotCancel(t *testing.T) {
	for name, newEngine := range queueKinds {
		e := newEngine(1)
		first := e.Schedule(time.Millisecond, "first", func() {})
		e.Run(2 * time.Millisecond)
		ran := false
		later := e.Schedule(time.Millisecond, "later", func() { ran = true })
		if later.ev != first.ev {
			t.Fatalf("%s: the later Schedule did not reuse the fired object", name)
		}
		first.Cancel()
		if first.Canceled() || later.Canceled() {
			t.Fatalf("%s: Canceled() = %v/%v for stale/later handle, want false/false", name, first.Canceled(), later.Canceled())
		}
		if e.PendingLive() != 1 {
			t.Fatalf("%s: PendingLive = %d after a stale Cancel, want 1", name, e.PendingLive())
		}
		e.Run(time.Second)
		if !ran {
			t.Fatalf("%s: a stale fired handle canceled the later event", name)
		}
	}
}

// TestStaleCanceledHandleCannotCancel: a canceled event's object goes
// back to the pool (at once from a wheel slot, on surfacing from the
// heap); a second Cancel through its handle after the object was reused
// must leave the later event alone.
func TestStaleCanceledHandleCannotCancel(t *testing.T) {
	for name, newEngine := range queueKinds {
		e := newEngine(1)
		victim := e.Schedule(time.Millisecond, "victim", func() { t.Errorf("%s: canceled event fired", name) })
		victim.Cancel()
		if !victim.Canceled() {
			t.Fatalf("%s: Canceled() = false right after Cancel", name)
		}
		e.Run(2 * time.Millisecond)
		ran := false
		later := e.Schedule(time.Millisecond, "later", func() { ran = true })
		if later.ev != victim.ev {
			t.Fatalf("%s: the later Schedule did not reuse the canceled object", name)
		}
		victim.Cancel()
		if victim.Canceled() || later.Canceled() {
			t.Fatalf("%s: Canceled() = %v/%v for stale/later handle, want false/false", name, victim.Canceled(), later.Canceled())
		}
		if e.PendingLive() != 1 || e.Pending() != 1 {
			t.Fatalf("%s: Pending=%d PendingLive=%d after a stale Cancel, want 1/1", name, e.Pending(), e.PendingLive())
		}
		e.Run(time.Second)
		if !ran {
			t.Fatalf("%s: a stale canceled handle canceled the later event", name)
		}
	}
}

func TestSetProbeFiresEveryN(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var at []uint64
	e.SetProbe(3, func() {
		fired++
		at = append(at, e.Executed())
	})
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, "ev", func() {})
	}
	e.Run(time.Second)
	if fired != 3 {
		t.Fatalf("probe fired %d times over 10 events, want 3", fired)
	}
	// The probe observes the engine after the Nth event completed.
	want := []uint64{3, 6, 9}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("probe executed counts = %v, want %v", at, want)
		}
	}
}

func TestSetProbeDisable(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.SetProbe(1, func() { fired++ })
	e.SetProbe(0, nil)
	e.Schedule(0, "ev", func() {})
	e.Run(time.Second)
	if fired != 0 {
		t.Fatalf("disabled probe fired %d times", fired)
	}
}

func TestSetProbeDoesNotPerturbExecution(t *testing.T) {
	// The probe is a pure observer: the executed event sequence and the
	// engine's RNG stream must be identical with and without one.
	run := func(probe bool) (seq []time.Duration, draws []uint64) {
		e := NewEngine(99)
		if probe {
			e.SetProbe(2, func() {})
		}
		for i := 0; i < 20; i++ {
			d := time.Duration(i%7) * time.Millisecond
			e.Schedule(d, "ev", func() {
				seq = append(seq, e.Now())
				draws = append(draws, e.Rand().Uint64())
			})
		}
		e.Run(time.Second)
		return seq, draws
	}
	s1, d1 := run(false)
	s2, d2 := run(true)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(d1, d2) {
		t.Fatal("probe changed the event sequence or RNG stream")
	}
}
