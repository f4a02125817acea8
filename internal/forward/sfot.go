package forward

import (
	"time"

	"github.com/vanetsec/georoute/internal/geonet"
)

// The S-FoT+ line of work (arxiv 2403.11271) hardens ETSI CBF by
// changing when a contender fires and what it takes to silence one.
// Two of its ingredients are reproduced here as contention policies over
// the router's unchanged CBF state machine.

// DefaultSlots is the slot count of the registered "sfot-slot" strategy.
const DefaultSlots = 8

// SlottedCBF quantizes the standard's distance-proportional contention
// timer into a fixed number of discrete slots. Contenders at similar
// distances collapse onto the same timeout instead of fanning out over
// a continuum: the farthest slot fires at TO_MIN exactly, and the timer
// no longer leaks a fine-grained distance estimate to an observer.
type SlottedCBF struct {
	// Slots is the number of quantization steps (>= 1).
	Slots int
}

// Timeout implements geonet.ContentionPolicy.
func (s SlottedCBF) Timeout(r *geonet.Router, _ *geonet.Packet, from geonet.Address) time.Duration {
	e := r.LocT().Lookup(from, r.Now())
	if e == nil {
		return geonet.TOMax
	}
	frac := r.Position().DistanceTo(e.PV.Pos) / r.Range()
	if frac > 1 {
		frac = 1
	}
	// Slot 0 (the farthest contenders) fires at TO_MIN; each nearer slot
	// waits one quantum longer, up to just under TO_MAX.
	slot := int((1 - frac) * float64(s.Slots))
	if slot >= s.Slots {
		slot = s.Slots - 1
	}
	span := int64(geonet.TOMax - geonet.TOMin)
	return geonet.TOMin + time.Duration(span*int64(slot)/int64(s.Slots))
}

// CancelOnDuplicate implements geonet.ContentionPolicy: standard
// suppression (every duplicate cancels).
func (SlottedCBF) CancelOnDuplicate(*geonet.Router, uint8, uint8, int) bool { return true }

// CounterCBF keeps the standard timer but requires K overheard copies
// before a contention is silenced. With K=2 a single replayed echo — the
// paper's intra-area blockage primitive — no longer suppresses a
// contender by itself; the cost is extra redundant re-broadcasts in the
// attack-free case, which the tournament's overhead axis makes visible.
type CounterCBF struct {
	inner geonet.ContentionPolicy
	k     int
}

// NewCounterCBF builds the policy with the given suppression threshold.
func NewCounterCBF(k int) *CounterCBF {
	return &CounterCBF{inner: geonet.NewStandardCBF(), k: k}
}

// Timeout implements geonet.ContentionPolicy (standard timer).
func (c *CounterCBF) Timeout(r *geonet.Router, p *geonet.Packet, from geonet.Address) time.Duration {
	return c.inner.Timeout(r, p, from)
}

// CancelOnDuplicate implements geonet.ContentionPolicy.
func (c *CounterCBF) CancelOnDuplicate(_ *geonet.Router, _, _ uint8, nth int) bool {
	return nth >= c.k
}
