package trace

import (
	"fmt"
	"sort"
	"time"
)

// ChainKey identifies one end-to-end packet: the source address and its
// sequence number.
type ChainKey struct {
	Src uint64
	SN  uint16
}

// Chain is the reconstructed lifecycle of one packet across every node
// that touched a copy of it.
type Chain struct {
	Key   ChainKey
	PType PType

	// Origins counts EvOriginate records (must be exactly 1).
	Origins int
	// OriginAt is the origination time.
	OriginAt time.Duration
	// Intakes counts copies entering nodes: EvOriginate + EvRX.
	Intakes int
	// TX counts all transmissions of the packet (any kind).
	TX int
	// RX counts receive-path acceptances.
	RX int
	// Delivered counts terminal deliveries (EvDeliver).
	Delivered int
	// Drops tallies per-reason copy discards (frame-level reasons —
	// verify_reject, own_echo — are tallied here too but excluded from
	// the copy balance, since the copy never produced an EvRX intake).
	Drops map[Reason]int
	// Buffered / BufferPending count GF store-carry-forward entries and
	// how many were still held when the trace ended.
	Buffered      int
	BufferPending int
	// Armed / ArmPending count CBF contentions and how many were still
	// armed when the trace ended.
	Armed      int
	ArmPending int
	// Canceled counts CBF cancellations (EvCBFCancel).
	Canceled int
	// Lost counts unicast transmissions whose target never saw the
	// frame (out of range, detached, or still in flight at the end).
	Lost int

	// HopCount is RHL-derived hops of the first delivery (0 if never
	// delivered).
	HopCount int
	// Latency is origination-to-first-delivery time (0 if never
	// delivered).
	Latency time.Duration

	violations []string
}

// frameLevel reports whether a drop reason fires before the receive path
// accepts the copy (so it has no matching EvRX intake).
func frameLevel(r Reason) bool {
	switch r {
	case ReasonDecodeFail, ReasonVerifyReject, ReasonOwnEcho, ReasonLifetimeExpired:
		return true
	}
	return false
}

// immediateTX reports whether a TX kind disposes of the intake copy that
// triggered it (as opposed to resolving a buffer or an armed contention).
func immediateTX(k Kind) bool {
	switch k {
	case KindGF, KindPerimeter, KindCBFSource, KindCBFEntry, KindBeacon:
		return true
	}
	return false
}

// Analysis is the outcome of reconstructing a trace.
type Analysis struct {
	// Chains holds one entry per (Src, SN), sorted by key.
	Chains []*Chain
	// FrameDrops tallies drops that never entered a chain's copy
	// balance: decode failures (no packet identity), and per-chain
	// verify/echo/lifetime rejections (no EvRX intake).
	FrameDrops map[Reason]int
	// Records is the total number of records analyzed.
	Records int
}

type pairKey struct{ from, to uint64 }

type chainBuild struct {
	chain *Chain

	immediates  int
	bufResolved int
	armResolved int

	firstDeliverAt  time.Duration
	firstDeliverRHL uint8
	originRHL       uint8

	// unicast frame accounting per (sender, target) pair
	uniTX   map[pairKey]int
	uniRecv map[pairKey]int
	// accepted is the highest RHL each node has accepted (EvRX) so far.
	accepted map[uint64]uint8
}

// Analyzed reports whether Analyze reads r. It skips beacon records
// (beacons have no sequence identity) and the informational attacker
// capture/replay and medium unicast-loss records, so a caller that keeps
// only the records this accepts gets the same chains.
func Analyzed(r Record) bool {
	switch r.Event {
	case EvCapture, EvReplay, EvUnicastLoss:
		return false
	}
	return r.PType != PTBeacon
}

// Analyze reconstructs per-packet chains from a record stream and runs
// the conservation checks, plus the RHL check: a relay never sends a copy
// whose RHL is not below the highest RHL it accepted for the packet.
// Records that Analyzed rejects are counted but not read.
func Analyze(recs []Record) *Analysis {
	a := &Analysis{FrameDrops: make(map[Reason]int), Records: len(recs)}
	chains := make(map[ChainKey]*chainBuild)

	get := func(r Record) *chainBuild {
		k := ChainKey{Src: r.Src, SN: r.SN}
		cb := chains[k]
		if cb == nil {
			cb = &chainBuild{
				chain:    &Chain{Key: k, PType: r.PType, Drops: make(map[Reason]int)},
				uniTX:    make(map[pairKey]int),
				uniRecv:  make(map[pairKey]int),
				accepted: make(map[uint64]uint8),
			}
			chains[k] = cb
		}
		if cb.chain.PType == PTNone {
			cb.chain.PType = r.PType
		}
		return cb
	}

	for _, r := range recs {
		if !Analyzed(r) {
			continue
		}
		if r.Src == 0 {
			// No packet identity: decode failures.
			if r.Event == EvDrop {
				a.FrameDrops[r.Reason]++
			}
			continue
		}
		cb := get(r)
		c := cb.chain
		switch r.Event {
		case EvOriginate:
			c.Origins++
			c.Intakes++
			if c.Origins == 1 {
				c.OriginAt = r.At
				cb.originRHL = r.RHL
			}
		case EvRX:
			c.RX++
			c.Intakes++
			cb.uniRecv[pairKey{r.Peer, r.Node}]++
			if r.RHL > cb.accepted[r.Node] {
				cb.accepted[r.Node] = r.RHL
			}
		case EvTX:
			c.TX++
			// Every relay hop lowers the RHL: a node other than the source
			// sends a copy below the highest RHL it has accepted.
			if hi, ok := cb.accepted[r.Node]; ok && r.Node != r.Src && r.RHL >= hi {
				c.violations = append(c.violations,
					fmt.Sprintf("%s src=%d sn=%d: node %d sent RHL %d, not below the RHL %d it accepted",
						r.PType, r.Src, r.SN, r.Node, r.RHL, hi))
			}
			switch {
			case r.Kind == KindGFRetry:
				cb.bufResolved++
			case r.Kind == KindCBFFire:
				cb.armResolved++
			case immediateTX(r.Kind):
				cb.immediates++
			}
			if r.Peer != 0 {
				cb.uniTX[pairKey{r.Node, r.Peer}]++
			}
		case EvDeliver:
			c.Delivered++
			// A GUC delivery is the copy's terminal disposition. A GBC
			// delivery is informational: the same copy continues into
			// contention, which produces the real disposition.
			if r.PType == PTGeoUnicast {
				cb.immediates++
			}
			if c.Delivered == 1 {
				cb.firstDeliverAt = r.At
				cb.firstDeliverRHL = r.RHL
			}
		case EvDrop:
			c.Drops[r.Reason]++
			switch {
			case frameLevel(r.Reason):
				// Pre-intake rejection: count at frame level. The frame
				// reached the node's radio, so it still settles the
				// unicast pair accounting.
				a.FrameDrops[r.Reason]++
				cb.uniRecv[pairKey{r.Peer, r.Node}]++
			case r.Kind == KindBuffer:
				cb.bufResolved++
			case r.Kind == KindArm:
				cb.armResolved++
			default:
				cb.immediates++
			}
		case EvCBFCancel:
			// One record, two roles: the overheard duplicate copy is
			// consumed, and one armed contention is resolved.
			c.Canceled++
			c.Drops[r.Reason]++
			cb.immediates++
			cb.armResolved++
		case EvGFBuffer:
			c.Buffered++
		case EvCBFArm:
			c.Armed++
		}
	}

	for _, cb := range chains {
		c := cb.chain
		c.BufferPending = c.Buffered - cb.bufResolved
		c.ArmPending = c.Armed - cb.armResolved
		for pk, tx := range cb.uniTX {
			if recv := cb.uniRecv[pk]; tx > recv {
				c.Lost += tx - recv
			}
		}
		if c.Delivered > 0 {
			c.Latency = cb.firstDeliverAt - c.OriginAt
			c.HopCount = int(cb.originRHL) - int(cb.firstDeliverRHL) + 1
		}
		c.check(cb)
		a.Chains = append(a.Chains, c)
	}
	sort.Slice(a.Chains, func(i, j int) bool {
		if a.Chains[i].Key.Src != a.Chains[j].Key.Src {
			return a.Chains[i].Key.Src < a.Chains[j].Key.Src
		}
		return a.Chains[i].Key.SN < a.Chains[j].Key.SN
	})
	return a
}

// check runs the per-chain conservation invariants.
func (c *Chain) check(cb *chainBuild) {
	id := fmt.Sprintf("%s src=%d sn=%d", c.PType, c.Key.Src, c.Key.SN)
	if c.Origins != 1 {
		c.violations = append(c.violations,
			fmt.Sprintf("%s: %d originate records (want 1)", id, c.Origins))
	}
	// Copy conservation: every copy entering a node (originate or RX)
	// must be disposed of exactly once — immediately (drop / consuming
	// deliver / forward TX / contention cancel) or by entering a holding
	// state (GF buffer, CBF arm).
	disposed := cb.immediates + c.Buffered + c.Armed
	if c.Intakes != disposed {
		c.violations = append(c.violations,
			fmt.Sprintf("%s: %d copies taken in but %d disposed (%d immediate + %d buffered + %d armed)",
				id, c.Intakes, disposed, cb.immediates, c.Buffered, c.Armed))
	}
	// Holding states resolve at most once each.
	if cb.bufResolved > c.Buffered {
		c.violations = append(c.violations,
			fmt.Sprintf("%s: %d buffer resolutions for %d buffer entries", id, cb.bufResolved, c.Buffered))
	}
	if cb.armResolved > c.Armed {
		c.violations = append(c.violations,
			fmt.Sprintf("%s: %d contention resolutions for %d armed contentions", id, cb.armResolved, c.Armed))
	}
}

// Violations collects every conservation and RHL violation across all
// chains. An empty slice means the trace balances: every copy of every
// packet is accounted for as delivered, forwarded, dropped (with a
// reason), lost in the medium, or still held when the trace ended, and
// every relay hop lowered the RHL.
func (a *Analysis) Violations() []string {
	var out []string
	for _, c := range a.Chains {
		out = append(out, c.violations...)
	}
	return out
}

// Delivered reports how many chains reached at least one delivery.
func (a *Analysis) Delivered() int {
	n := 0
	for _, c := range a.Chains {
		if c.Delivered > 0 {
			n++
		}
	}
	return n
}

// Summary renders a one-line-per-chain accounting plus totals.
func (a *Analysis) Summary() string {
	var b []byte
	totalDrops := make(map[Reason]int)
	for _, c := range a.Chains {
		status := "LOST"
		switch {
		case c.Delivered > 0:
			status = fmt.Sprintf("DELIVERED hops=%d latency=%v", c.HopCount, c.Latency)
		case c.BufferPending > 0 || c.ArmPending > 0:
			status = "PENDING"
		}
		b = append(b, fmt.Sprintf("%-5s src=%-6d sn=%-4d tx=%-3d rx=%-3d lost=%-2d %s\n",
			c.PType, c.Key.Src, c.Key.SN, c.TX, c.RX, c.Lost, status)...)
		for r, n := range c.Drops {
			totalDrops[r] += n
		}
	}
	b = append(b, fmt.Sprintf("chains=%d delivered=%d records=%d\n", len(a.Chains), a.Delivered(), a.Records)...)
	var reasons []Reason
	for r := range totalDrops {
		reasons = append(reasons, r)
	}
	for r := range a.FrameDrops {
		if _, ok := totalDrops[r]; !ok {
			reasons = append(reasons, r)
		}
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	for _, r := range reasons {
		n := totalDrops[r]
		if fd, ok := a.FrameDrops[r]; ok && n == 0 {
			n = fd
		}
		b = append(b, fmt.Sprintf("  drop %-13s %d\n", r, n)...)
	}
	if v := a.Violations(); len(v) > 0 {
		b = append(b, fmt.Sprintf("CONSERVATION VIOLATIONS (%d):\n", len(v))...)
		for _, s := range v {
			b = append(b, "  "...)
			b = append(b, s...)
			b = append(b, '\n')
		}
	}
	return string(b)
}
