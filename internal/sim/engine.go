// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine executes timestamped events in (time, insertion) order, so two
// runs with the same seed and the same scenario produce identical traces.
// Simulated time is a time.Duration measured from the start of the run,
// giving nanosecond resolution — far finer than the millisecond-scale CBF
// contention timers the GeoNetworking experiments depend on.
//
// Two interchangeable queue implementations back the scheduler: a
// hierarchical timing wheel (the default — O(1) schedule and pop for the
// short-horizon events that dominate VANET workloads: CBF contention
// timers, beacon jitter, radio propagation latency) and the original
// binary heap, kept behind NewEngineWithQueue for differential testing.
// Both order events by (time, sequence), so their event streams are
// bit-identical.
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Event lifecycle states. Event objects are owned by the engine, which
// recycles every one of them, fired or canceled, through a free pool, so
// steady-state scheduling does not allocate. Callers hold Timer handles,
// never the objects.
const (
	stateIdle      uint8 = iota // pooled / never scheduled
	stateScheduled              // queued, waiting to fire
	stateFired                  // executed (object may be recycled)
	stateCanceled               // canceled before firing
)

// Where the event is physically queued, for Cancel to find it.
const (
	whereNone     uint8 = iota // not in any container
	whereSlot                  // intrusive wheel-slot list (O(1) unlink)
	whereReady                 // wheel drain buffer, sorted (lazy cancel)
	whereOverflow              // wheel overflow heap (lazy cancel)
	whereHeap                  // binary-heap queue (lazy cancel)
)

// event is the engine's pooled record of one scheduled callback.
type event struct {
	at   time.Duration
	seq  uint64
	name string
	fn   func()

	// Intrusive links for the wheel-slot doubly-linked lists. slot points
	// at the containing slot so Cancel can unlink in O(1).
	prev, next *event
	slot       *wheelSlot

	eng   *Engine
	state uint8
	where uint8
	// gen counts the object's reuses; a Timer names one generation.
	gen uint32
}

// Timer is the handle Schedule returns. It names one generation of a
// pooled event object: once the engine reuses the object for a later
// Schedule the handle is stale, and Cancel through it is a no-op instead
// of killing the unrelated newer event. The zero Timer names no event.
type Timer struct {
	ev  *event
	gen uint32
}

// live reports whether the handle still names its event object.
func (t Timer) live() bool { return t.ev != nil && t.ev.gen == t.gen }

// Canceled reports whether the handle's event was canceled. A stale
// handle reports false: its object now belongs to a later event.
func (t Timer) Canceled() bool { return t.live() && t.ev.state == stateCanceled }

// Cancel prevents a pending event from running. Canceling an event that
// already ran or was already canceled, or through a stale handle, is a
// no-op. Events sitting in a wheel slot are unlinked and recycled
// immediately (O(1)); events in the ready, overflow or heap queues are
// marked and reclaimed when they surface.
func (t Timer) Cancel() {
	if !t.live() || t.ev.state != stateScheduled {
		return
	}
	e := t.ev
	e.state = stateCanceled
	e.fn = nil
	eng := e.eng
	eng.live--
	if e.where == whereSlot {
		e.slot.unlink(e)
		e.where = whereNone
		e.slot = nil
		eng.wheel.count--
		eng.free = append(eng.free, e)
		return
	}
	eng.canceledPending++
}

// QueueKind selects the scheduler implementation backing an Engine.
type QueueKind int

const (
	// QueueWheel is the hierarchical timing wheel (default).
	QueueWheel QueueKind = iota
	// QueueHeap is the original binary heap, kept for differential testing
	// and as a fallback.
	QueueHeap
)

// Engine is a single-threaded discrete-event scheduler. The zero value is
// not usable; construct with NewEngine.
type Engine struct {
	now     time.Duration
	seq     uint64
	rng     *rand.Rand
	stopped bool
	// Executed counts events that have run, for introspection and tests.
	executed uint64
	// live counts scheduled events that are neither fired nor canceled;
	// canceledPending counts canceled events still physically queued
	// (lazy cancellation in the overflow/heap paths).
	live            int
	canceledPending int
	// free recycles fired and canceled event objects for Schedule.
	// Sync-free: the engine is single-threaded.
	free []*event
	// probe is an observation hook invoked from the Run loop every
	// probeEvery executed events (see SetProbe).
	probeEvery uint64
	probeLeft  uint64
	probeFn    func()

	// Exactly one of wheel/heap is active, per the QueueKind.
	wheel *wheel
	heap  *eventHeap
}

// NewEngine constructs an engine with a deterministic RNG derived from
// seed, backed by the timing-wheel scheduler. Engines are not safe for
// concurrent use; run one engine per goroutine and aggregate results
// afterwards.
func NewEngine(seed uint64) *Engine {
	return NewEngineWithQueue(seed, QueueWheel)
}

// NewEngineWithQueue constructs an engine with an explicit scheduler
// implementation. Both kinds execute identical event sequences (the
// differential property test enforces it); the heap exists so regressions
// in the wheel are detectable against a trivially-correct baseline.
func NewEngineWithQueue(seed uint64, kind QueueKind) *Engine {
	e := &Engine{
		rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
	switch kind {
	case QueueWheel:
		e.wheel = newWheel()
	case QueueHeap:
		e.heap = &eventHeap{}
	default:
		panic(fmt.Sprintf("sim: unknown queue kind %d", kind))
	}
	return e
}

// Now reports the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand exposes the engine's deterministic random source. All stochastic
// choices in a scenario (beacon jitter, packet source selection, ...) must
// draw from this source to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are physically queued, including
// lazily-canceled events that have not yet been reclaimed. The wheel
// unlinks canceled slot events immediately, so there Pending tracks
// PendingLive closely; the heap carries every canceled event until its
// deadline surfaces.
func (e *Engine) Pending() int { return e.live + e.canceledPending }

// PendingLive reports how many scheduled events will actually fire —
// Pending minus the canceled ones awaiting lazy reclamation. Use this for
// occupancy accounting: long-lived canceled CBF timers otherwise inflate
// the count.
func (e *Engine) PendingLive() int { return e.live }

// QueueStats is a point-in-time snapshot of scheduler occupancy, published
// through the telemetry sampler.
type QueueStats struct {
	// Live is the number of events that will fire (== PendingLive).
	Live int
	// CanceledPending counts canceled events still physically queued.
	CanceledPending int
	// Overflow is the number of far-future events beyond the wheel
	// horizon (always 0 for the heap engine).
	Overflow int
	// MaxSlotDepth is the deepest wheel slot (0 for the heap engine).
	MaxSlotDepth int
}

// QueueStats snapshots scheduler occupancy. The wheel walk is O(slots);
// callers sample it from probes, not per event.
func (e *Engine) QueueStats() QueueStats {
	s := QueueStats{Live: e.live, CanceledPending: e.canceledPending}
	if e.wheel != nil {
		s.Overflow = len(e.wheel.overflow.items)
		s.MaxSlotDepth = e.wheel.maxSlotDepth()
	}
	return s
}

// SetProbe installs an observation hook invoked from the Run loop after
// every `every` executed events. The hook runs at an event boundary on
// the engine goroutine, so it may read engine and scenario state freely —
// but it must not schedule events, cancel events, or draw from Rand:
// probes are pure observers, and determinism depends on the event stream
// being identical with or without one. Telemetry samplers publish
// snapshots into atomic cells here. every == 0 or fn == nil removes the
// probe.
func (e *Engine) SetProbe(every uint64, fn func()) {
	if every == 0 || fn == nil {
		e.probeEvery, e.probeLeft, e.probeFn = 0, 0, nil
		return
	}
	e.probeEvery = every
	e.probeLeft = every
	e.probeFn = fn
}

// alloc grabs a pooled event object, advancing its generation so handles
// to its previous use go stale, or allocates a fresh one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		*ev = event{gen: ev.gen + 1}
		return ev
	}
	return &event{}
}

// Schedule runs fn after delay. A negative delay is an error in the caller;
// it panics to surface scheduling bugs immediately. Fire-and-forget
// callers simply drop the returned handle.
func (e *Engine) Schedule(delay time.Duration, name string, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", delay, name))
	}
	return e.ScheduleAt(e.now+delay, name, fn)
}

// ScheduleAt runs fn at absolute simulated time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) ScheduleAt(t time.Duration, name string, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.name = name
	ev.fn = fn
	ev.eng = e
	ev.state = stateScheduled
	e.seq++
	e.live++
	if e.wheel != nil {
		e.wheel.push(ev, e.now)
	} else {
		ev.where = whereHeap
		e.heap.push(ev)
	}
	return Timer{ev: ev, gen: ev.gen}
}

// Every schedules fn at t0, t0+period, t0+2·period, ... until the engine
// stops or the returned ticker is canceled.
func (e *Engine) Every(t0, period time.Duration, name string, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v for ticker %q", period, name))
	}
	t := &Ticker{engine: e, period: period, name: name, fn: fn}
	t.ev = e.Schedule(t0, name, t.tick)
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	name    string
	fn      func()
	ev      Timer
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped && !t.engine.stopped {
		t.ev = t.engine.Schedule(t.period, t.name, t.tick)
	}
}

// Stop cancels future ticks. Safe to call multiple times, from inside the
// ticker's own callback (where Cancel through the firing handle is a
// no-op), or after the engine stopped.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// popNext removes and returns the earliest live event with at <= until,
// or nil if none. Lazily-canceled events surfacing on the way are
// reclaimed here (their pool slot included), which is what keeps a
// long-lived storm of canceled CBF timers from bloating the queue.
func (e *Engine) popNext(until time.Duration) *event {
	if e.wheel != nil {
		return e.wheel.pop(until, e)
	}
	for {
		ev := e.heap.popIfDue(until)
		if ev == nil {
			return nil
		}
		if ev.state == stateCanceled {
			e.reclaimCanceled(ev)
			continue
		}
		return ev
	}
}

// reclaimCanceled retires a lazily-canceled event surfacing from a queue
// into the free pool.
func (e *Engine) reclaimCanceled(ev *event) {
	e.canceledPending--
	ev.where = whereNone
	e.free = append(e.free, ev)
}

// Run executes events until the queue drains or simulated time reaches
// until (events at exactly until still run). It returns the number of
// events executed by this call.
func (e *Engine) Run(until time.Duration) uint64 {
	start := e.executed
	for !e.stopped {
		ev := e.popNext(until)
		if ev == nil {
			break
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil
		ev.state = stateFired
		ev.where = whereNone
		ev.slot = nil
		e.live--
		fn()
		e.executed++
		// Recycle the object; the generation fence makes the fired
		// handle's later Cancel a no-op.
		e.free = append(e.free, ev)
		if e.probeFn != nil {
			if e.probeLeft--; e.probeLeft == 0 {
				e.probeLeft = e.probeEvery
				e.probeFn()
			}
		}
	}
	if e.now < until {
		e.now = until
	}
	return e.executed - start
}

// Stop halts Run after the current event completes. Subsequent Run calls
// are no-ops until the engine is discarded; engines are single-use.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop was called.
func (e *Engine) Stopped() bool { return e.stopped }
