package sim

import "time"

// eventHeap is a binary min-heap ordered by (time, sequence). It backs
// the heap engine the tests build as the differential-testing baseline,
// and the wheel's overflow spill for events beyond the top-level horizon. Hand-rolled
// rather than container/heap: the old adapter maintained a per-event heap
// index purely to support a heap.Remove path nothing ever called;
// cancellation is lazy here (canceled events surface at their deadline
// and are reclaimed by the pop path), so no index is needed at all.
type eventHeap struct {
	items []*event
}

func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	h.items = append(h.items, ev)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// pop removes and returns the minimum. Callers check emptiness first.
func (h *eventHeap) pop() *event {
	n := len(h.items)
	top := h.items[0]
	last := h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	if n > 1 {
		h.items[0] = last
		h.siftDown(0)
	}
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && eventBefore(h.items[right], h.items[left]) {
			min = right
		}
		if !eventBefore(h.items[min], h.items[i]) {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

// popIfDue removes and returns the minimum event if it is due at or
// before until, canceled or not — the engine reclaims canceled ones.
func (h *eventHeap) popIfDue(until time.Duration) *event {
	if len(h.items) == 0 || h.items[0].at > until {
		return nil
	}
	return h.pop()
}
