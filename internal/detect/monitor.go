package detect

import (
	"fmt"
	"time"

	"github.com/vanetsec/georoute/addrtab"
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/trace"
)

// srcState is a node's monitor memory of one claim source. The monitors
// keep it themselves and never read the router's LocT.
type srcState struct {
	haveBeacon bool
	lastBeacon time.Duration // arrival time of the last single-hop claim
	havePV     bool
	lastTS     time.Duration   // newest claimed PV timestamp
	lastPos    geo.Point       // position claimed at lastTS
	arrivals   []time.Duration // single-hop claim arrivals inside the churn window
}

// Record implements trace.Sink. An rx record is a claim by its packet's
// source, heard from the link-layer sender Peer (the suspect on
// violation); an own_echo drop is an echo of the receiving node's own
// packet. Every other record passes through.
func (d *Detector) Record(r trace.Record) {
	switch {
	case r.Event == trace.EvRX:
		d.observeClaim(&r)
	case r.Event == trace.EvDrop && r.Reason == trace.ReasonOwnEcho:
		d.observeEcho(&r)
	}
}

// observeClaim runs the claim-facing checks. Single-hop claims (beacons)
// get the inter-arrival, range, recency and churn checks;
// multi-hop data packets legitimately carry their originator's PV from
// far away and deliver duplicate copies under CBF. The checks that read a
// position or timestamp skip records without a claim, which is every
// record decoded from JSONL.
func (d *Detector) observeClaim(c *trace.Record) {
	single := c.PType == trace.PTBeacon
	if !single && !c.HasClaim {
		return
	}
	srcs := d.nodes.Get(c.Node)
	if srcs == nil {
		srcs = new(addrtab.Table[uint64, srcState])
		d.nodes.Put(c.Node, srcs)
	}
	st := srcs.Get(c.Src)
	if st == nil {
		st = new(srcState)
		srcs.Put(c.Src, st)
	}

	if single {
		// Beacon inter-arrival floor.
		if st.haveBeacon {
			gap := c.At - st.lastBeacon
			if gap < MinBeaconGap {
				d.flag(c.At, c.Node, c.Peer, CheckBeacon, func() string {
					return fmt.Sprintf("beacons from %d arrived %v apart (floor %v)", c.Src, gap, MinBeaconGap)
				})
			}
		}
		st.haveBeacon = true
		st.lastBeacon = c.At

		if c.HasClaim {
			// Direct-neighbor range plausibility.
			if dist := c.ClaimPos.DistanceTo(c.RxPos); dist > RangeFactor*c.RxRange {
				d.flag(c.At, c.Node, c.Peer, CheckPosition, func() string {
					return fmt.Sprintf("neighbor claim for %d at %.0fm exceeds %.1fx range %.0fm", c.Src, dist, RangeFactor, c.RxRange)
				})
			}

			// Stale-timestamp recency: a fresh direct claim must carry a
			// strictly newer PV than the last one seen for that source.
			if st.havePV && c.ClaimTS <= st.lastTS {
				d.flag(c.At, c.Node, c.Peer, CheckReplay, func() string {
					return fmt.Sprintf("claim for %d repeats PV timestamp %v (last %v)", c.Src, c.ClaimTS, st.lastTS)
				})
			}
		}

		// Claim-cadence churn: prune the window, then count this arrival.
		keep := st.arrivals[:0]
		for _, at := range st.arrivals {
			if c.At-at < ChurnWindow {
				keep = append(keep, at)
			}
		}
		st.arrivals = append(keep, c.At)
		if len(st.arrivals) > ChurnMax {
			n := len(st.arrivals)
			d.flag(c.At, c.Node, c.Peer, CheckChurn, func() string {
				return fmt.Sprintf("%d neighbor claims for %d inside %v (max %d)", n, c.Src, ChurnWindow, ChurnMax)
			})
		}
	}
	if !c.HasClaim {
		return
	}

	// Implied-speed plausibility applies to every claim with a strictly
	// newer timestamp (equal-timestamp duplicates carry zero motion
	// information and are the replay check's business). The PosError
	// allowance absorbs measurement noise: without it the check degrades
	// into dist/dt, which is unbounded as dt→0.
	if st.havePV && c.ClaimTS > st.lastTS {
		dt := (c.ClaimTS - st.lastTS).Seconds()
		dist := c.ClaimPos.DistanceTo(st.lastPos)
		if excess := dist - MaxSpeed*dt; excess > PosError {
			d.flag(c.At, c.Node, c.Peer, CheckPosition, func() string {
				return fmt.Sprintf("claims for %d moved %.0fm in %.2fs, %.0fm beyond the %.0f m/s envelope", c.Src, dist, dt, excess, MaxSpeed)
			})
		}
	}
	if !st.havePV || c.ClaimTS > st.lastTS {
		st.havePV = true
		st.lastTS = c.ClaimTS
		st.lastPos = c.ClaimPos
	}
}

// observeEcho runs the own-echo replay check. An echo of our own beacon
// is always implausible (no honest node retransmits beacons, and the
// radio never delivers to self); an echo of our own data packet is
// implausible when its consumed hop budget (InitRHL minus the received
// RHL) could not fit in the time since its origination (ClaimTS) at
// MinHopDelay per hop. An echo with no InitRHL carries no hop evidence.
func (d *Detector) observeEcho(e *trace.Record) {
	elapsed := e.At - e.ClaimTS
	hops := int(e.InitRHL) - int(e.RHL)
	switch {
	case e.PType == trace.PTBeacon:
		d.flag(e.At, e.Node, e.Peer, CheckReplay, func() string {
			return fmt.Sprintf("own beacon echoed back after %v", elapsed)
		})
	case hops >= 1 && elapsed < time.Duration(hops)*MinHopDelay:
		d.flag(e.At, e.Node, e.Peer, CheckReplay, func() string {
			return fmt.Sprintf("own packet back after %v claiming %d hops (floor %v/hop)", elapsed, hops, MinHopDelay)
		})
	}
}
