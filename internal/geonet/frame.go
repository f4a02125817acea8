package geonet

import (
	"time"

	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
)

// This file is the decode-once half of the per-hop pipeline. A broadcast
// frame fans out to every receiver in range, and historically each of
// them independently re-decoded the same bytes and re-derived an HMAC
// state to verify the same signature. The medium now attaches a pooled
// radio.FrameCache to each transmission; DecodeFrame and VerifyFrame
// memoize their work there, so the N-receiver fan-out costs one decode
// and one verify.
//
// Sharing rules: the cached *Packet is an immutable shared view handed
// to every receiver. Receivers may read it freely and must Fork (basic
// header mutation) or Clone (protected mutation) before writing. The
// cache itself — including the Protected alias into the frame payload —
// is only valid during the delivery walk. What may outlive the walk
// depends on the packet type:
//
//   - A beacon decodes into the transmission's scratch packet (the
//     cache's Scratch slot), which the transmission's next frame
//     overwrites. A decoded beacon, and every byte slice in it, is valid
//     only during its delivery walk: receivers copy what they keep (the
//     LocT copies the PV, the attacker copies the frame payload, trace
//     records copy fields), and never keep the *Packet or a Fork of it.
//   - Every other type decodes into storage of its own, which its
//     Payload, Cert and Signature alias. It may be retained, and so may
//     its Forks: GF custody buffers, CBF contention and the attacker's
//     replays keep them.

// DecodeFrame decodes the frame's GeoNetworking PDU, reusing the
// transmission-wide cached decode when the medium supplied one. Frames
// built by hand (tests, tools) carry no cache and decode directly into
// storage of their own, whatever their type.
func DecodeFrame(f radio.Frame) (*Packet, error) {
	c := f.Cache
	if c == nil {
		p, _, err := unmarshalWire(f.Payload, nil)
		return p, err
	}
	if !c.DecodeDone {
		// A pooled transmission gets its scratch packet on its first
		// decode, whatever the type, and keeps it: after warm-up a
		// beacon round decodes without allocating.
		scratch, _ := c.Scratch.(*ownedPacket)
		if scratch == nil {
			scratch = new(ownedPacket)
			c.Scratch = scratch
		}
		p, protEnd, err := unmarshalWire(f.Payload, scratch)
		c.DecodeDone = true
		c.DecodeErr = err
		if err == nil {
			c.Decoded = p
			c.Protected = f.Payload[basicHeaderLen:protEnd]
		}
	}
	if c.DecodeErr != nil {
		return nil, c.DecodeErr
	}
	return c.Decoded.(*Packet), nil
}

// VerifyFrame checks the packet's security envelope, memoizing the
// verdict in the frame cache so each (verifier, time) pair is verified
// once per transmission. All receivers of one batched delivery share the
// run's trust anchor and observe the same engine time, so in practice
// the signature is checked exactly once per frame. The cached path
// verifies over the protected wire region recorded at decode time,
// skipping the re-serialization p.Verify performs.
func VerifyFrame(f radio.Frame, p *Packet, v security.Verifier, now time.Duration) error {
	c := f.Cache
	if c == nil || !c.DecodeDone || c.DecodeErr != nil {
		return p.Verify(v, now)
	}
	if c.VerifyDone && c.Verifier == v && c.VerifiedAt == now {
		return c.VerifyErr
	}
	err := v.Verify(security.SignedMessage{
		Cert:      p.Cert,
		Protected: c.Protected,
		Signature: p.Signature,
	}, now)
	c.VerifyDone = true
	c.Verifier = v
	c.VerifiedAt = now
	c.VerifyErr = err
	return err
}
