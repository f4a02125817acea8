package sim

import (
	"math/bits"
	"time"
)

// Hierarchical timing wheel (calendar queue).
//
// Simulated timestamps are bucketed into ticks of 2^tickShift ns
// (~262 µs). Level 0 has one slot per tick and covers ~1.07 s — wide
// enough that the dominant event classes (radio propagation latency,
// CBF contention timers up to TO_MAX, traffic integration ticks) insert
// and pop in O(1). Level 1 covers ~18 min (beacon periods, experiment
// phase markers) and level 2 ~13 days; events land in the coarsest level
// whose slot resolution still separates them from the current time, and
// cascade down one level at a time as the clock approaches. Anything
// beyond level 2 — in practice nothing a campaign schedules — spills
// into a small binary heap.
//
// Every slot is an unsorted intrusive list: pushes are O(1) appends no
// matter how many events crowd into one tick. Ordering happens at the
// last possible moment: when the clock reaches a level-0 slot, its
// events move into `ready`, a binary min-heap ordered by (at, seq) that
// never holds more than about one tick's worth of events. Serving from a
// heap bounded by slot depth k costs O(log k) per event — against
// O(log n) over the whole pending set for the global binary heap — and a
// late arrival into the current tick is a single O(log k) push instead
// of any re-sorting.
//
// Determinism contract: the engine's total order is (at, seq), which has
// no equal keys (seq is unique), so the ready heap pops events in
// exactly the order the global heap would and execution is bit-identical
// between the two queue implementations. The differential property test
// in differential_test.go enforces this on randomized workloads.
const (
	// tickShift converts nanoseconds to wheel ticks: 2^18 ns ≈ 262 µs.
	tickShift = 18
	// l0Bits sizes level 0 at 4096 single-tick slots (~1.07 s horizon).
	l0Bits = 12
	// lkBits sizes levels 1 and 2 at 1024 slots each.
	lkBits = 10

	numLevels = 3
)

// levelShifts[k] is how far a tick shifts right to index level k's slots.
var levelShifts = [numLevels]uint{0, l0Bits, l0Bits + lkBits}

// levelBits[k] is log2 of level k's slot count.
var levelBits = [numLevels]uint{l0Bits, lkBits, lkBits}

// wheelSlot is one bucket: an unsorted intrusive doubly-linked event list
// plus the back-references Cancel needs to unlink in O(1) and clear the
// occupancy bit when the slot empties.
type wheelSlot struct {
	head, tail *event
	count      int
	level      *wheelLevel
	idx        uint64
}

// append links ev at the tail. Slots are unordered; the ready heap
// establishes order on drain.
func (s *wheelSlot) append(ev *event) {
	ev.prev = s.tail
	ev.next = nil
	if s.tail != nil {
		s.tail.next = ev
	} else {
		s.head = ev
	}
	s.tail = ev
	if s.count == 0 {
		s.level.setBit(s.idx)
	}
	s.count++
}

// unlink removes ev from the slot in O(1).
func (s *wheelSlot) unlink(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		s.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		s.tail = ev.prev
	}
	ev.prev, ev.next = nil, nil
	s.count--
	if s.count == 0 {
		s.level.clearBit(s.idx)
	}
}

// wheelLevel is one ring of slots with an occupancy bitmap so the pop
// path finds the next non-empty slot with a couple of word scans instead
// of walking empty buckets.
type wheelLevel struct {
	shift  uint // tick >> shift indexes this level
	mask   uint64
	slots  []wheelSlot
	bitmap []uint64
}

func (l *wheelLevel) setBit(i uint64)   { l.bitmap[i>>6] |= 1 << (i & 63) }
func (l *wheelLevel) clearBit(i uint64) { l.bitmap[i>>6] &^= 1 << (i & 63) }

// nextOccupied returns the circular distance from slot p to the first
// occupied slot (p itself included), scanning the bitmap word-wise.
func (l *wheelLevel) nextOccupied(p uint64) (uint64, bool) {
	n := uint64(len(l.slots))
	if b := l.bitmap[p>>6] >> (p & 63); b != 0 {
		return uint64(bits.TrailingZeros64(b)), true
	}
	words := uint64(len(l.bitmap))
	for i := uint64(1); i <= words; i++ {
		w := ((p >> 6) + i) % words
		if b := l.bitmap[w]; b != 0 {
			s := w<<6 + uint64(bits.TrailingZeros64(b))
			return (s - p + n) % n, true
		}
	}
	return 0, false
}

// wheel is the full hierarchical queue.
type wheel struct {
	// cur is the wheel clock in ticks. Invariant: cur never exceeds the
	// tick of any queued event, and only advances (to a drained slot's
	// tick, a cascaded slot's start, or — when the queue is empty — the
	// engine clock, which handles long quiet gaps and wrap-around).
	cur    uint64
	levels [numLevels]wheelLevel
	// ready holds the drained events of the tick(s) the clock has reached,
	// min-ordered by (at, seq). Its size is bounded by roughly one tick's
	// slot depth. Cancellation here is lazy: canceled events surface at
	// the top and are reclaimed by pop.
	ready eventHeap
	// overflow holds events beyond the level-2 horizon, min-ordered by
	// (at, seq) with lazy cancellation.
	overflow eventHeap
	// count is the number of physically queued events: slots, ready heap
	// and overflow together.
	count int
}

func newWheel() *wheel {
	w := &wheel{}
	for k := 0; k < numLevels; k++ {
		size := uint64(1) << levelBits[k]
		lv := &w.levels[k]
		lv.shift = levelShifts[k]
		lv.mask = size - 1
		lv.slots = make([]wheelSlot, size)
		lv.bitmap = make([]uint64, size>>6)
		for i := range lv.slots {
			lv.slots[i].level = lv
			lv.slots[i].idx = uint64(i)
		}
	}
	return w
}

// push places ev into the coarsest structure that still resolves it
// relative to the wheel clock. now is the engine clock, used to
// fast-forward the wheel over quiet gaps when the queue is empty.
func (w *wheel) push(ev *event, now time.Duration) {
	if w.count == 0 {
		if nc := uint64(now) >> tickShift; nc > w.cur {
			w.cur = nc
		}
	}
	w.count++
	t := uint64(ev.at) >> tickShift
	c := w.cur
	if t < c {
		// Defensive: cannot happen while the invariant holds (events never
		// schedule in the past); the ready heap keeps exact order regardless.
		t = c
	}
	switch {
	case t-c < 1<<l0Bits:
		s := &w.levels[0].slots[t&w.levels[0].mask]
		s.append(ev)
		ev.where, ev.slot = whereSlot, s
	case (t>>l0Bits)-(c>>l0Bits) < 1<<lkBits:
		s := &w.levels[1].slots[(t>>l0Bits)&w.levels[1].mask]
		s.append(ev)
		ev.where, ev.slot = whereSlot, s
	case (t>>(l0Bits+lkBits))-(c>>(l0Bits+lkBits)) < 1<<lkBits:
		s := &w.levels[2].slots[(t>>(l0Bits+lkBits))&w.levels[2].mask]
		s.append(ev)
		ev.where, ev.slot = whereSlot, s
	default:
		ev.where = whereOverflow
		w.overflow.push(ev)
	}
}

// drainSlot moves every event of a level-0 slot into the ready heap.
func (w *wheel) drainSlot(s *wheelSlot) {
	ev := s.head
	s.head, s.tail = nil, nil
	s.count = 0
	s.level.clearBit(s.idx)
	for ev != nil {
		next := ev.next
		ev.prev, ev.next, ev.slot = nil, nil, nil
		ev.where = whereReady
		w.ready.push(ev)
		ev = next
	}
}

// pop removes and returns the earliest live event with at <= until, or
// nil. It serves the ready heap, drains the next occupied level-0 slot
// into it when the heap runs ahead, and cascades upper-level slots (and
// promotes overflow entries) exactly when the clock reaches them.
// Lazily-canceled events surfacing from the ready heap or the overflow
// are reclaimed inline.
func (w *wheel) pop(until time.Duration, eng *Engine) *event {
	if w.count == 0 {
		return nil
	}
	limitTick := uint64(until) >> tickShift
	const never = ^uint64(0)
	for {
		// Minimum of the ready heap (already ordered; may be canceled).
		var rdy *event
		rdyTick := never
		if len(w.ready.items) > 0 {
			rdy = w.ready.items[0]
			rdyTick = uint64(rdy.at) >> tickShift
		}

		// First occupied level-0 slot at/after the clock.
		var candSlot *wheelSlot
		candTick := never
		l0 := &w.levels[0]
		if d, ok := l0.nextOccupied(w.cur & l0.mask); ok {
			candTick = w.cur + d
			candSlot = &l0.slots[candTick&l0.mask]
		}

		// Earliest pending cascade: the first occupied upper-level slot
		// (by absolute start tick) or the overflow head.
		srcLevel := -1
		srcStart := never
		for k := 1; k < numLevels; k++ {
			lv := &w.levels[k]
			p := (w.cur >> lv.shift) & lv.mask
			if d, ok := lv.nextOccupied(p); ok {
				if start := ((w.cur >> lv.shift) + d) << lv.shift; start < srcStart {
					srcStart, srcLevel = start, k
				}
			}
		}
		if len(w.overflow.items) > 0 {
			if ht := uint64(w.overflow.items[0].at) >> tickShift; ht < srcStart {
				srcStart, srcLevel = ht, numLevels
			}
		}

		target := rdyTick
		if candTick < target {
			target = candTick
		}
		if srcLevel >= 0 && srcStart <= target && srcStart <= limitTick {
			// A coarser bucket starts at or before anything ready to fire
			// (and within the run limit): bring its events down before
			// deciding what fires next.
			if srcStart > w.cur {
				w.cur = srcStart
			}
			if srcLevel == numLevels {
				ev := w.overflow.pop()
				w.count--
				if ev.state == stateCanceled {
					eng.reclaimCanceled(ev)
					if w.count == 0 {
						return nil
					}
				} else {
					w.push(ev, eng.now)
				}
			} else {
				lv := &w.levels[srcLevel]
				idx := (srcStart >> lv.shift) & lv.mask
				s := &lv.slots[idx]
				evn := s.head
				s.head, s.tail = nil, nil
				s.count = 0
				lv.clearBit(idx)
				for evn != nil {
					next := evn.next
					evn.prev, evn.next, evn.slot = nil, nil, nil
					w.count--
					w.push(evn, eng.now)
					evn = next
				}
			}
			continue
		}

		if candTick <= rdyTick && candTick <= limitTick {
			// The next occupied slot fires no later than the ready minimum:
			// drain it into the heap before serving.
			if candTick > w.cur {
				w.cur = candTick
			}
			w.drainSlot(candSlot)
			continue
		}

		if rdy != nil && rdy.at <= until {
			w.ready.pop()
			w.count--
			if rdy.state == stateCanceled {
				eng.reclaimCanceled(rdy)
				if w.count == 0 {
					return nil
				}
				continue
			}
			rdy.where = whereNone
			return rdy
		}
		return nil
	}
}

// maxSlotDepth reports the deepest bucket across all levels plus the
// unserved ready heap — a telemetry figure for how well the slot
// granularity matches the workload.
func (w *wheel) maxSlotDepth() int {
	max := len(w.ready.items)
	for k := 0; k < numLevels; k++ {
		for i := range w.levels[k].slots {
			if c := w.levels[k].slots[i].count; c > max {
				max = c
			}
		}
	}
	return max
}
