package geonet

import (
	"time"

	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/trace"
)

// This file implements the standard's remaining transport types on top of
// the router: single-hop broadcast (SHB), topologically-scoped broadcast
// (TSB), and the location service (LS) that discovers the position of a
// GeoUnicast destination that is not in the local location table.

// DefaultTSBHopLimit bounds plain topological flooding.
const DefaultTSBHopLimit = 10

// lsPending is an upper-layer payload waiting for a location-service
// answer about its destination.
type lsPending struct {
	payload  []byte
	deadline time.Duration
}

// SendSHB broadcasts a single-hop message carrying an upper-layer payload
// (the transport used by CAM-style awareness messages). Receivers treat
// it like a beacon for location-table purposes — including the
// IS_NEIGHBOUR flag — and deliver the payload.
func (r *Router) SendSHB(payload []byte) Key {
	r.seq++
	p := &Packet{
		Basic:    BasicHeader{Version: protocolVersion, RHL: 1, LifetimeMs: uint32(r.cfg.BeaconInterval / time.Millisecond)},
		Type:     TypeSHB,
		SN:       r.seq,
		SourcePV: r.pv(),
		Payload:  payload,
	}
	p.Sign(r.cfg.Signer)
	r.stats.Originated++
	r.emit(trace.EvOriginate, trace.KindNone, trace.ReasonNone, p, 0)
	r.send(radio.BroadcastID, p)
	r.emit(trace.EvTX, trace.KindSHB, trace.ReasonNone, p, 0)
	return p.Key()
}

// SendTSB floods a message topologically for up to hops link traversals
// (0 uses DefaultTSBHopLimit): with hops=3 the message reaches receivers
// up to three radio hops away. Every receiver delivers the payload once
// and re-broadcasts while the remaining hop limit allows.
func (r *Router) SendTSB(payload []byte, hops uint8) Key {
	if hops == 0 {
		hops = DefaultTSBHopLimit
	}
	r.seq++
	p := &Packet{
		Basic:    BasicHeader{Version: protocolVersion, RHL: hops, LifetimeMs: uint32(r.cfg.PacketLifetime / time.Millisecond)},
		Type:     TypeTSB,
		SN:       r.seq,
		SourcePV: r.pv(),
		Payload:  payload,
	}
	p.Sign(r.cfg.Signer)
	r.stats.Originated++
	r.emit(trace.EvOriginate, trace.KindNone, trace.ReasonNone, p, 0)
	st := r.stateFor(p)
	st.tsbDone = true
	r.send(radio.BroadcastID, p)
	r.emit(trace.EvTX, trace.KindTSB, trace.ReasonNone, p, 0)
	return p.Key()
}

// handleSHB delivers a single-hop broadcast. The LocT update (with
// neighbor status) already happened in Deliver.
func (r *Router) handleSHB(p *Packet) {
	st := r.stateFor(p)
	if r.deliverOnce(p, st) {
		r.emit(trace.EvDeliver, trace.KindNone, trace.ReasonNone, p, 0)
	} else {
		r.drop(p, 0, trace.ReasonDuplicate, trace.KindNone)
	}
}

// handleTSB delivers and re-floods a topologically-scoped broadcast.
func (r *Router) handleTSB(p *Packet) {
	st := r.stateFor(p)
	if r.deliverOnce(p, st) {
		// Informational: the TSB copy lives on into the reflood decision,
		// which produces its disposition record.
		r.emit(trace.EvDeliver, trace.KindNone, trace.ReasonNone, p, 0)
	}
	if st.tsbDone {
		r.drop(p, 0, trace.ReasonDuplicate, trace.KindNone)
		return
	}
	st.tsbDone = true
	if p.Basic.RHL <= 1 {
		r.drop(p, 0, trace.ReasonRHLExpired, trace.KindNone)
		return
	}
	out := p.Fork()
	out.Basic.RHL--
	r.stats.TSBForwarded++
	r.send(radio.BroadcastID, out)
	r.emit(trace.EvTX, trace.KindTSB, trace.ReasonNone, out, 0)
}

// SendGeoUnicastAuto sends a GeoUnicast to a destination whose position
// may be unknown: a known destination goes straight out via GF, an
// unknown one triggers a location-service request and the payload is
// queued until the reply arrives (or the packet lifetime ends). It
// returns true when the destination was already known.
func (r *Router) SendGeoUnicastAuto(dest Address, payload []byte) bool {
	now := r.cfg.Engine.Now()
	if e := r.loct.Lookup(dest, now); e != nil {
		r.SendGeoUnicast(dest, e.PV.Pos, payload)
		return true
	}
	r.lsQueue[dest] = append(r.lsQueue[dest], lsPending{
		payload:  payload,
		deadline: now + r.cfg.PacketLifetime,
	})
	r.stats.LSRequests++
	r.sendLSRequest(dest)
	return false
}

func (r *Router) sendLSRequest(dest Address) {
	r.seq++
	p := &Packet{
		Basic:    BasicHeader{Version: protocolVersion, RHL: DefaultTSBHopLimit, LifetimeMs: uint32(r.cfg.PacketLifetime / time.Millisecond)},
		Type:     TypeLSRequest,
		SN:       r.seq,
		SourcePV: r.pv(),
		DestAddr: dest,
	}
	p.Sign(r.cfg.Signer)
	r.emit(trace.EvOriginate, trace.KindNone, trace.ReasonNone, p, 0)
	st := r.stateFor(p)
	st.tsbDone = true
	r.send(radio.BroadcastID, p)
	r.emit(trace.EvTX, trace.KindFlood, trace.ReasonNone, p, 0)
}

// handleLSRequest answers requests for our own position and re-floods
// others (TSB semantics).
func (r *Router) handleLSRequest(p *Packet, f radio.Frame) {
	st := r.stateFor(p)
	if p.DestAddr == r.cfg.Addr {
		if st.tsbDone {
			r.drop(p, f.From, trace.ReasonDuplicate, trace.KindNone)
			return
		}
		st.tsbDone = true
		r.emit(trace.EvDeliver, trace.KindNone, trace.ReasonNone, p, f.From)
		r.stats.LSReplies++
		r.sendLSReply(p.SourcePV)
		return
	}
	if st.tsbDone {
		r.drop(p, f.From, trace.ReasonDuplicate, trace.KindNone)
		return
	}
	st.tsbDone = true
	if p.Basic.RHL <= 1 {
		r.drop(p, f.From, trace.ReasonRHLExpired, trace.KindNone)
		return
	}
	out := p.Fork()
	out.Basic.RHL--
	r.stats.TSBForwarded++
	r.send(radio.BroadcastID, out)
	r.emit(trace.EvTX, trace.KindFlood, trace.ReasonNone, out, 0)
}

// sendLSReply unicasts our position vector back to the requester via GF.
func (r *Router) sendLSReply(requester PositionVector) {
	r.seq++
	p := &Packet{
		Basic:    BasicHeader{Version: protocolVersion, RHL: r.cfg.MaxHopLimit, LifetimeMs: uint32(r.cfg.PacketLifetime / time.Millisecond)},
		Type:     TypeLSReply,
		SN:       r.seq,
		SourcePV: r.pv(),
		DestAddr: requester.Addr,
		DestPos:  requester.Pos,
	}
	p.Sign(r.cfg.Signer)
	r.emit(trace.EvOriginate, trace.KindNone, trace.ReasonNone, p, 0)
	st := r.stateFor(p)
	st.gfSeen = true
	r.forwardGreedy(p, p.DestPos, st)
}

// handleLSReply flushes queued payloads at the requester and relays the
// reply elsewhere like a GeoUnicast.
func (r *Router) handleLSReply(p *Packet, f radio.Frame) {
	st := r.stateFor(p)
	if p.DestAddr != r.cfg.Addr {
		r.relayGreedy(p, f, st, p.DestPos)
		return
	}
	if st.delivered {
		r.drop(p, f.From, trace.ReasonDuplicate, trace.KindNone)
		return
	}
	st.delivered = true
	r.emit(trace.EvDeliver, trace.KindNone, trace.ReasonNone, p, f.From)
	target := p.SourcePV.Addr
	pos := p.SourcePV.Pos
	pending := r.lsQueue[target]
	delete(r.lsQueue, target)
	now := r.cfg.Engine.Now()
	for _, q := range pending {
		if now > q.deadline {
			r.drop(nil, 0, trace.ReasonLSExpired, trace.KindNone)
			continue
		}
		r.SendGeoUnicast(target, pos, q.payload)
	}
}

// purgeLSQueue drops queued payloads whose lifetime ended without a
// location-service answer.
func (r *Router) purgeLSQueue() {
	now := r.cfg.Engine.Now()
	for dest, list := range r.lsQueue {
		kept := list[:0]
		for _, q := range list {
			if now > q.deadline {
				r.drop(nil, 0, trace.ReasonLSExpired, trace.KindNone)
				continue
			}
			kept = append(kept, q)
		}
		if len(kept) == 0 {
			delete(r.lsQueue, dest)
		} else {
			r.lsQueue[dest] = kept
		}
	}
}

// LSQueueLen reports how many payloads wait for location answers.
func (r *Router) LSQueueLen() int {
	n := 0
	for _, l := range r.lsQueue {
		n += len(l)
	}
	return n
}
