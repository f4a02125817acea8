package geonet

import (
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/trace"
)

// This file is the router's observability seam: every lifecycle event
// funnels through emit, the one observer hook (misbehavior detection is
// a trace sink, see internal/detect), and — the important part — every
// discarded packet copy funnels through drop, which both bumps the
// matching Stats counter and emits the trace record. Nothing in the
// router may discard a copy without naming a trace.Reason.

// emit sends one lifecycle record when tracing is enabled. The nil check
// comes first so the disabled path costs one branch and keeps the receive
// path allocation-free.
func (r *Router) emit(ev trace.Event, kind trace.Kind, reason trace.Reason, p *Packet, peer radio.NodeID) {
	if r.cfg.Tracer == nil {
		return
	}
	rec := trace.Record{
		At:     r.cfg.Engine.Now(),
		Node:   uint64(r.cfg.Addr),
		Event:  ev,
		Kind:   kind,
		Reason: reason,
	}
	if peer != 0 && peer != radio.BroadcastID {
		rec.Peer = uint64(peer)
	}
	if p != nil {
		rec.Src = uint64(p.SourcePV.Addr)
		rec.SN = p.SN
		rec.PType = trace.PType(p.Type)
		rec.RHL = p.Basic.RHL
		switch {
		case ev == trace.EvRX:
			// The PV entered the LocT: record the claim it makes.
			rec.HasClaim = true
			rec.ClaimPos, rec.ClaimTS = p.SourcePV.Pos, p.SourcePV.Timestamp
			rec.RxPos, rec.RxRange = r.cfg.Position(), r.cfg.Range
		case reason == trace.ReasonOwnEcho:
			rec.ClaimTS, rec.InitRHL = p.SourcePV.Timestamp, r.cfg.MaxHopLimit
		}
	}
	r.cfg.Tracer.Emit(rec)
}

// drop discards one packet copy: it routes the reason into the Stats
// counters and emits the trace record. p is nil when the copy never
// decoded (ReasonDecodeFail); from is the link-layer sender when one
// exists.
// ReasonCBFCanceled is the one drop that doubles as a state transition —
// the overheard duplicate consumes the armed contention — so it travels
// as EvCBFCancel rather than EvDrop.
func (r *Router) drop(p *Packet, from radio.NodeID, reason trace.Reason, kind trace.Kind) {
	r.countDrop(reason)
	ev := trace.EvDrop
	if reason == trace.ReasonCBFCanceled {
		ev = trace.EvCBFCancel
	}
	r.emit(ev, kind, reason, p, from)
}

// dropKey is drop for a copy we only know by its end-to-end key: Stop
// takes the key of each armed contention from its buffered copy before
// it releases the arm, and drops the copies in key order.
func (r *Router) dropKey(k Key, reason trace.Reason, kind trace.Kind) {
	r.countDrop(reason)
	if r.cfg.Tracer == nil {
		return
	}
	r.cfg.Tracer.Emit(trace.Record{
		At:     r.cfg.Engine.Now(),
		Node:   uint64(r.cfg.Addr),
		Src:    uint64(k.Src),
		SN:     k.SN,
		Event:  trace.EvDrop,
		Kind:   kind,
		Reason: reason,
	})
}

// countDrop maps the closed drop taxonomy onto the Stats counters. The
// historical counters keep their exact meanings; the two reasons that
// used to vanish silently (own echoes, copies held at Stop) get the new
// EchoesDropped and StopDropped counters.
func (r *Router) countDrop(reason trace.Reason) {
	switch reason {
	case trace.ReasonDecodeFail:
		r.stats.DecodeErrors++
	case trace.ReasonVerifyReject:
		r.stats.AuthFailures++
	case trace.ReasonOwnEcho:
		r.stats.EchoesDropped++
	case trace.ReasonDuplicate, trace.ReasonDupCustody:
		r.stats.Duplicates++
	case trace.ReasonDupIgnored:
		r.stats.CBFIgnored++
	case trace.ReasonRHLExpired:
		r.stats.RHLExpired++
	case trace.ReasonGFExpired, trace.ReasonLifetimeExpired:
		r.stats.GFExpired++
	case trace.ReasonCBFCanceled:
		r.stats.CBFCanceled++
	case trace.ReasonStopped:
		r.stats.StopDropped++
	}
}

// Add accumulates o into s field by field. vanet.World uses it to fold
// the stats of detached (despawned) routers into the run totals; a
// reflection test asserts no field is ever left out.
func (s *Stats) Add(o Stats) {
	s.BeaconsSent += o.BeaconsSent
	s.BeaconsReceived += o.BeaconsReceived
	s.Originated += o.Originated
	s.Delivered += o.Delivered
	s.GFForwarded += o.GFForwarded
	s.GFPerimeter += o.GFPerimeter
	s.GFBuffered += o.GFBuffered
	s.GFRetries += o.GFRetries
	s.GFExpired += o.GFExpired
	s.GFFiltered += o.GFFiltered
	s.GFRecustody += o.GFRecustody
	s.CBFBuffered += o.CBFBuffered
	s.CBFForwarded += o.CBFForwarded
	s.CBFCanceled += o.CBFCanceled
	s.CBFIgnored += o.CBFIgnored
	s.TSBForwarded += o.TSBForwarded
	s.LSRequests += o.LSRequests
	s.LSReplies += o.LSReplies
	s.RHLExpired += o.RHLExpired
	s.Duplicates += o.Duplicates
	s.AuthFailures += o.AuthFailures
	s.DecodeErrors += o.DecodeErrors
	s.EchoesDropped += o.EchoesDropped
	s.StopDropped += o.StopDropped
}
