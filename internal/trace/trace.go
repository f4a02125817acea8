// Package trace is the packet-lifecycle observability layer: a typed
// event-record model with a closed drop-reason taxonomy, pluggable sinks
// (JSONL, in-memory, per-node counters), and a post-hoc analyzer that
// reconstructs per-SN hop chains and checks copy conservation.
//
// The package is designed around a nil fast path: every instrumented
// component holds a *Tracer and calls Emit unconditionally; a nil tracer
// returns immediately without touching the record, so the instrumented
// hot paths stay zero-alloc when tracing is off.
package trace

import (
	"time"

	"github.com/vanetsec/georoute/internal/geo"
)

// Event classifies what happened to a packet copy at a node.
type Event uint8

// Lifecycle events.
const (
	evInvalid Event = iota
	// EvOriginate marks a source creating a new packet (one per SN).
	EvOriginate
	// EvTX marks a frame handed to the radio medium.
	EvTX
	// EvRX marks a frame accepted by a router's receive path (after
	// decode and verification).
	EvRX
	// EvDeliver marks terminal delivery to the node's upper layer.
	EvDeliver
	// EvDrop marks a discarded copy; Reason says why, Kind says from
	// which holding state (none, buffer, arm).
	EvDrop
	// EvCBFArm marks a CBF contention timer being armed.
	EvCBFArm
	// EvCBFCancel marks a CBF contention canceled by an overheard
	// duplicate (the duplicate copy is consumed by the cancellation).
	EvCBFCancel
	// EvGFBuffer marks a packet entering the GF store-carry-forward
	// buffer.
	EvGFBuffer
	// EvUnicastLoss marks the radio medium failing to reach a unicast
	// target (out of range or detached).
	EvUnicastLoss
	// EvCapture marks the attacker sniffing a frame.
	EvCapture
	// EvReplay marks the attacker re-injecting a captured frame.
	EvReplay

	numEvents
)

var eventNames = [numEvents]string{
	EvOriginate:   "originate",
	EvTX:          "tx",
	EvRX:          "rx",
	EvDeliver:     "deliver",
	EvDrop:        "drop",
	EvCBFArm:      "cbf_arm",
	EvCBFCancel:   "cbf_cancel",
	EvGFBuffer:    "gf_buffer",
	EvUnicastLoss: "unicast_loss",
	EvCapture:     "capture",
	EvReplay:      "replay",
}

// String returns the wire name of the event.
func (e Event) String() string {
	if int(e) < len(eventNames) && eventNames[e] != "" {
		return eventNames[e]
	}
	return "unknown"
}

// Kind qualifies an event with the mechanism involved — which forwarding
// path a TX took, or which holding state a drop came from.
type Kind uint8

// Event kinds.
const (
	KindNone Kind = iota
	// KindBeacon is a single-hop beacon TX.
	KindBeacon
	// KindSHB is a single-hop broadcast TX.
	KindSHB
	// KindGF is a greedy-forwarding unicast TX decided at receive time.
	KindGF
	// KindGFRetry is a greedy TX from the store-carry-forward retry loop.
	KindGFRetry
	// KindCBFSource is the source's initial broadcast into the area.
	KindCBFSource
	// KindCBFEntry is the immediate broadcast by the directed entry
	// forwarder of a GBC packet.
	KindCBFEntry
	// KindCBFFire is a broadcast from a CBF contention timer firing.
	KindCBFFire
	// KindTSB is a topologically-scoped rebroadcast TX.
	KindTSB
	// KindFlood is a location-service request flood TX.
	KindFlood
	// KindBuffer marks a drop out of the GF store-carry-forward buffer.
	KindBuffer
	// KindArm marks a drop (or cancel) of an armed CBF contention.
	KindArm
	// KindPerimeter is a unicast TX decided in perimeter-mode recovery
	// (GPSR right-hand-rule forwarding) at receive time.
	KindPerimeter

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:      "",
	KindBeacon:    "beacon",
	KindSHB:       "shb",
	KindGF:        "gf",
	KindGFRetry:   "gf_retry",
	KindCBFSource: "cbf_source",
	KindCBFEntry:  "cbf_entry",
	KindCBFFire:   "cbf_fire",
	KindTSB:       "tsb",
	KindFlood:     "flood",
	KindBuffer:    "buffer",
	KindArm:       "arm",
	KindPerimeter: "perimeter",
}

// String returns the wire name of the kind ("" for KindNone).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Reason is the closed drop taxonomy: every discarded packet copy names
// exactly one of these.
type Reason uint8

// Drop reasons.
const (
	ReasonNone Reason = iota
	// ReasonDecodeFail: the frame payload did not parse as a GeoNet PDU.
	ReasonDecodeFail
	// ReasonVerifyReject: the security envelope failed verification.
	ReasonVerifyReject
	// ReasonOwnEcho: the node overheard its own transmission.
	ReasonOwnEcho
	// ReasonDuplicate: terminal-destination duplicate suppression.
	ReasonDuplicate
	// ReasonDupCustody: a relay already holding (or having held) custody
	// of this packet discarded a re-received copy.
	ReasonDupCustody
	// ReasonDupIgnored: a CBF contender ignored a duplicate that did not
	// cancel its contention (mitigation rejected the cancellation).
	ReasonDupIgnored
	// ReasonRHLExpired: the remaining hop limit reached zero.
	ReasonRHLExpired
	// ReasonGFExpired: the GF buffer lifetime elapsed with no next hop.
	ReasonGFExpired
	// ReasonCBFCanceled: an armed contention was canceled by a duplicate.
	ReasonCBFCanceled
	// ReasonStopped: the router was stopped with the copy still held.
	ReasonStopped
	// ReasonLSExpired: a packet queued behind a location-service lookup
	// expired before the lookup resolved.
	ReasonLSExpired
	// ReasonLifetimeExpired: a received copy was older than its packet
	// lifetime (dropped before intake).
	ReasonLifetimeExpired

	numReasons
)

var reasonNames = [numReasons]string{
	ReasonNone:            "",
	ReasonDecodeFail:      "decode_fail",
	ReasonVerifyReject:    "verify_reject",
	ReasonOwnEcho:         "own_echo",
	ReasonDuplicate:       "duplicate",
	ReasonDupCustody:      "dup_custody",
	ReasonDupIgnored:      "dup_ignored",
	ReasonRHLExpired:      "rhl_expired",
	ReasonGFExpired:       "gf_expired",
	ReasonCBFCanceled:     "cbf_canceled",
	ReasonStopped:         "stopped",
	ReasonLSExpired:       "ls_expired",
	ReasonLifetimeExpired: "lifetime_expired",
}

// String returns the wire name of the reason ("" for ReasonNone).
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "unknown"
}

// PType mirrors the GeoNetworking packet types without importing geonet
// (trace sits below every other internal package but geo). The numeric
// values match the wire constants; internal/geonet cross-checks them in a
// test.
type PType uint8

// Packet types (values match geonet's wire encoding).
const (
	PTNone PType = iota
	PTBeacon
	PTGeoUnicast
	PTGeoBroadcast
	PTSHB
	PTTSB
	PTLSRequest
	PTLSReply

	numPTypes
)

var ptypeNames = [numPTypes]string{
	PTNone:         "",
	PTBeacon:       "beacon",
	PTGeoUnicast:   "guc",
	PTGeoBroadcast: "gbc",
	PTSHB:          "shb",
	PTTSB:          "tsb",
	PTLSRequest:    "lsreq",
	PTLSReply:      "lsrep",
}

// String returns the wire name of the packet type ("" for PTNone).
func (p PType) String() string {
	if int(p) < len(ptypeNames) {
		return ptypeNames[p]
	}
	return "unknown"
}

// Record is one hop-level lifecycle event. Records are small value types;
// sinks that retain them copy by value.
type Record struct {
	// At is the simulation time of the event.
	At time.Duration
	// Node is the node where the event happened (radio/geonet address).
	Node uint64
	// Peer is the counterparty when one exists: the frame sender for RX
	// and drops of received copies, the unicast target for GF TX and
	// unicast-loss. Zero means none/broadcast.
	Peer uint64
	// Src is the packet's source address (identifies the SN namespace).
	Src uint64
	// SN is the packet's sequence number.
	SN uint16
	// Event is what happened.
	Event Event
	// Kind qualifies the event (forwarding path or holding state).
	Kind Kind
	// Reason names the drop cause (EvDrop and EvCBFCancel only).
	Reason Reason
	// PType is the GeoNetworking packet type.
	PType PType
	// RHL is the packet's remaining hop limit at the event.
	RHL uint8

	// The fields below live in memory only: the JSONL schema does not
	// carry them, so a decoded record has them zero. They hold the claim
	// the misbehavior detector (internal/detect) checks.

	// InitRHL is, on an own_echo drop, the hop limit the echoed node
	// gives its own multi-hop packets, so RHL tells the hops consumed.
	InitRHL uint8
	// HasClaim marks an rx record whose position vector entered the
	// receiver's LocT; ClaimPos, ClaimTS, RxPos and RxRange are then set.
	HasClaim bool
	// ClaimPos and ClaimTS are the packet's source position vector: where
	// and when its source claims to have been. ClaimTS is also set on an
	// own_echo drop, as the echoed packet's origination time.
	ClaimPos geo.Point
	ClaimTS  time.Duration
	// RxPos and RxRange are the receiver's own position and radio range
	// at arrival.
	RxPos   geo.Point
	RxRange float64
}

// Sink consumes records. Implementations must be safe for use from a
// single simulation goroutine; the tracer does no locking itself.
type Sink interface {
	Record(Record)
}

// Tracer fans records out to its sinks. A nil *Tracer is the disabled
// state: Emit returns immediately, so instrumentation sites need no
// separate enabled flag. A Tracer is itself a Sink, so tracers nest.
type Tracer struct {
	sinks []Sink
}

// New builds a tracer over the given sinks. A tracer among them
// contributes its own sinks, so nesting costs no extra call per record,
// and a nil tracer contributes none. With no sinks left it returns nil
// (the disabled tracer), so callers can pass optional sinks and tracers
// straight through.
func New(sinks ...Sink) *Tracer {
	var live []Sink
	for _, s := range sinks {
		if t, ok := s.(*Tracer); ok {
			if t != nil {
				live = append(live, t.sinks...)
			}
			continue
		}
		live = append(live, s)
	}
	if len(live) == 0 {
		return nil
	}
	return &Tracer{sinks: live}
}

// Record implements Sink by emitting r to the tracer's own sinks.
func (t *Tracer) Record(r Record) { t.Emit(r) }

// Emit sends one record to every sink. Safe on a nil tracer.
func (t *Tracer) Emit(r Record) {
	if t == nil {
		return
	}
	for _, s := range t.sinks {
		s.Record(r)
	}
}

// MemorySink retains every record in order. Intended for tests and the
// post-hoc analyzer.
type MemorySink struct {
	Records []Record
}

// Record appends the record.
func (m *MemorySink) Record(r Record) { m.Records = append(m.Records, r) }

// FuncSink adapts a function to the Sink interface.
type FuncSink func(Record)

// Record calls the function.
func (f FuncSink) Record(r Record) { f(r) }
