// Package geonet implements the GeoNetworking network layer of ETSI
// EN 302 636-4-1: beaconing, the location table (LocT), Greedy Forwarding
// (GF) for inter-area transport, and Contention-Based Forwarding (CBF)
// for intra-area flooding — together with the security envelope of
// TS 102 731 / IEEE 1609.2.
//
// The wire format mirrors the standard's structure faithfully where it
// matters for security analysis:
//
//   - The Basic Header carries the Remaining Hop Limit (RHL) and packet
//     lifetime, and is OUTSIDE the signed region — forwarders must be able
//     to decrement the RHL without re-signing. This is the integrity gap
//     the intra-area blockage attack exploits.
//   - The Common Header, sequence number, position vectors, destination
//     area and payload are INSIDE the signed region, so the attacker can
//     replay but not alter them.
package geonet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/security"
)

// Address is a GeoNetworking address (GN_ADDR). In this simulator it is
// numerically equal to the node's link-layer radio.NodeID and to its
// security.StationID; a real deployment would map between them.
type Address uint64

// PacketType discriminates GeoNetworking PDU types (Common Header HT).
type PacketType uint8

// Supported PDU types: the three the paper's attacks run on. Any other
// type byte fails decode with ErrBadType.
const (
	TypeBeacon PacketType = iota + 1
	TypeGeoUnicast
	TypeGeoBroadcast
)

// String implements fmt.Stringer.
func (t PacketType) String() string {
	switch t {
	case TypeBeacon:
		return "BEACON"
	case TypeGeoUnicast:
		return "GUC"
	case TypeGeoBroadcast:
		return "GBC"
	default:
		return fmt.Sprintf("PacketType(%d)", uint8(t))
	}
}

// PositionVector is the long position vector (PV) carried in
// GeoNetworking headers: address, timestamp, position, speed, heading.
type PositionVector struct {
	Addr      Address
	Timestamp time.Duration // simulated time the position was sampled
	Pos       geo.Point
	Speed     float64 // m/s
	Heading   float64 // compass degrees [0, 360)
}

// BasicHeader is the unsigned outer header. Forwarders rewrite RHL (and
// may rewrite LifetimeMs) in flight, which is exactly why it cannot be
// covered by the source signature.
type BasicHeader struct {
	Version    uint8
	RHL        uint8
	LifetimeMs uint32
}

// Packet is a decoded GeoNetworking PDU.
type Packet struct {
	Basic BasicHeader
	// Type selects which of the optional fields below are meaningful.
	Type PacketType
	// TrafficClass is carried but uninterpreted by the forwarding logic.
	TrafficClass uint8
	// SN is the source-assigned sequence number (not used by beacons).
	SN uint16
	// SourcePV identifies and locates the packet's originator.
	SourcePV PositionVector
	// DestAddr/DestPos direct a GeoUnicast packet.
	DestAddr Address
	DestPos  geo.Point
	// Area is the GeoBroadcast destination area.
	Area geo.Area
	// Payload is the upper-layer payload.
	Payload []byte

	// Cert and Signature authenticate the protected region.
	Cert      security.Certificate
	Signature []byte

	// Ext is the unsigned routing-extension trailer. Like the basic
	// header it is rewritten hop by hop (recovery strategies store their
	// per-packet mode here), so it cannot be covered by the source
	// signature — the same integrity gap the RHL lives in. A zero Ext
	// (greedy mode) is not encoded at all, keeping default-strategy
	// frames byte-identical to the pre-arena wire format.
	Ext PacketExt
}

// ExtMode enumerates the routing-extension forwarding modes.
type ExtMode uint8

// Routing-extension modes.
const (
	// ExtModeNone is plain greedy forwarding (the zero value; never
	// encoded on the wire).
	ExtModeNone ExtMode = iota
	// ExtModePerimeter marks a packet in GPSR perimeter-mode recovery.
	ExtModePerimeter
)

// PacketExt is the per-packet routing state carried in the unsigned
// trailer. All fields are scalars so Fork's shallow copy stays correct.
type PacketExt struct {
	// Mode selects the forwarding mode.
	Mode ExtMode
	// Lp is the position where the packet entered perimeter mode; a node
	// strictly closer to the destination than Lp returns to greedy.
	Lp geo.Point
	// LfDist is the distance from the current face's entry point to the
	// destination — crossings of the Lp→destination line strictly closer
	// than it move the walk to the next face.
	LfDist float64
	// E0From and E0To name the first edge walked on the current face;
	// revisiting it means the face was fully traversed without progress.
	E0From Address
	E0To   Address
}

// Key identifies a packet end-to-end for duplicate detection.
type Key struct {
	Src Address
	SN  uint16
}

// Key returns the duplicate-detection key.
func (p *Packet) Key() Key { return Key{Src: p.SourcePV.Addr, SN: p.SN} }

// lifetime is the packet's lifetime from its source timestamp.
func (p *Packet) lifetime() time.Duration {
	return time.Duration(p.Basic.LifetimeMs) * time.Millisecond
}

// Wire encoding ------------------------------------------------------------

// Decode errors.
var (
	ErrTruncated   = errors.New("geonet: truncated packet")
	ErrBadVersion  = errors.New("geonet: unsupported protocol version")
	ErrBadType     = errors.New("geonet: unknown packet type")
	ErrBadAreaKind = errors.New("geonet: unknown area kind")
	ErrBadExt      = errors.New("geonet: malformed routing-extension trailer")
)

// protocolVersion is the GeoNetworking version emitted in basic headers.
const protocolVersion = 1

// area wire kinds.
const (
	areaNone uint8 = iota
	areaCircle
	areaRect
	areaEllipse
)

// maxPayload bounds payload decoding of corrupt frames.
const maxPayload = 4096

// cm converts meters to the int32 centimeter wire representation.
func cm(m float64) int32 { return int32(math.Round(m * 100)) }

// meters converts the wire representation back.
func meters(v int32) float64 { return float64(v) / 100 }

func appendPoint(dst []byte, p geo.Point) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(cm(p.X)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(cm(p.Y)))
	return dst
}

func decodePoint(b []byte) (geo.Point, error) {
	if len(b) < 8 {
		return geo.Point{}, ErrTruncated
	}
	x := meters(int32(binary.BigEndian.Uint32(b)))
	y := meters(int32(binary.BigEndian.Uint32(b[4:])))
	return geo.Pt(x, y), nil
}

func appendPV(dst []byte, pv PositionVector) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(pv.Addr))
	dst = binary.BigEndian.AppendUint64(dst, uint64(pv.Timestamp))
	dst = appendPoint(dst, pv.Pos)
	dst = binary.BigEndian.AppendUint16(dst, uint16(int16(math.Round(pv.Speed*100))))
	dst = binary.BigEndian.AppendUint16(dst, uint16(math.Round(pv.Heading*10)))
	return dst
}

// pvWireLen is the encoded size of a position vector.
const pvWireLen = 8 + 8 + 8 + 2 + 2

func decodePV(b []byte) (PositionVector, error) {
	var pv PositionVector
	if len(b) < pvWireLen {
		return pv, ErrTruncated
	}
	pv.Addr = Address(binary.BigEndian.Uint64(b))
	pv.Timestamp = time.Duration(binary.BigEndian.Uint64(b[8:]))
	pos, err := decodePoint(b[16:])
	if err != nil {
		return pv, err
	}
	pv.Pos = pos
	pv.Speed = float64(int16(binary.BigEndian.Uint16(b[24:]))) / 100
	pv.Heading = float64(binary.BigEndian.Uint16(b[26:])) / 10
	return pv, nil
}

func appendArea(dst []byte, a geo.Area) []byte {
	switch area := a.(type) {
	case nil:
		return append(dst, areaNone)
	case geo.Circle:
		dst = append(dst, areaCircle)
		dst = appendPoint(dst, area.C)
		dst = binary.BigEndian.AppendUint32(dst, uint32(cm(area.R)))
		return dst
	case geo.Rect:
		dst = append(dst, areaRect)
		dst = appendPoint(dst, area.C)
		dst = binary.BigEndian.AppendUint32(dst, uint32(cm(area.A)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(cm(area.B)))
		dst = binary.BigEndian.AppendUint16(dst, uint16(math.Round(area.AzimuthDeg*10)))
		return dst
	case geo.Ellipse:
		dst = append(dst, areaEllipse)
		dst = appendPoint(dst, area.C)
		dst = binary.BigEndian.AppendUint32(dst, uint32(cm(area.A)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(cm(area.B)))
		dst = binary.BigEndian.AppendUint16(dst, uint16(math.Round(area.AzimuthDeg*10)))
		return dst
	default:
		panic(fmt.Sprintf("geonet: cannot encode area type %T", a))
	}
}

func decodeArea(b []byte) (geo.Area, int, error) {
	if len(b) < 1 {
		return nil, 0, ErrTruncated
	}
	kind := b[0]
	switch kind {
	case areaNone:
		return nil, 1, nil
	case areaCircle:
		if len(b) < 1+8+4 {
			return nil, 0, ErrTruncated
		}
		c, err := decodePoint(b[1:])
		if err != nil {
			return nil, 0, err
		}
		r := meters(int32(binary.BigEndian.Uint32(b[9:])))
		return geo.NewCircle(c, r), 13, nil
	case areaRect, areaEllipse:
		if len(b) < 1+8+4+4+2 {
			return nil, 0, ErrTruncated
		}
		c, err := decodePoint(b[1:])
		if err != nil {
			return nil, 0, err
		}
		av := meters(int32(binary.BigEndian.Uint32(b[9:])))
		bv := meters(int32(binary.BigEndian.Uint32(b[13:])))
		az := float64(binary.BigEndian.Uint16(b[17:])) / 10
		if kind == areaRect {
			return geo.NewRect(c, av, bv, az), 19, nil
		}
		return geo.NewEllipse(c, av, bv, az), 19, nil
	default:
		return nil, 0, ErrBadAreaKind
	}
}

// basicHeaderLen is the encoded size of the basic header.
const basicHeaderLen = 6

// appendProtected appends the signed region — everything except the
// basic header and the envelope — to dst. It is the single encoder the
// sign, verify and marshal paths all share, so the signed bytes and the
// transmitted bytes cannot diverge.
func (p *Packet) appendProtected(dst []byte) []byte {
	dst = append(dst, uint8(p.Type), p.TrafficClass)
	dst = binary.BigEndian.AppendUint16(dst, p.SN)
	dst = appendPV(dst, p.SourcePV)
	switch p.Type {
	case TypeGeoUnicast:
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.DestAddr))
		dst = appendPoint(dst, p.DestPos)
	case TypeGeoBroadcast:
		dst = appendArea(dst, p.Area)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Payload)))
	dst = append(dst, p.Payload...)
	return dst
}

// protectedBytes serializes the signed region into a fresh buffer.
func (p *Packet) protectedBytes() []byte {
	return p.appendProtected(make([]byte, 0, 64+len(p.Payload)))
}

// Sign computes and attaches the security envelope using the source's
// signer. Must be called after all protected fields are final.
func (p *Packet) Sign(signer security.Signer) {
	p.Cert = signer.Certificate()
	p.Signature = signer.AppendSign(nil, p.protectedBytes())
}

// appendSignedMarshal signs p and appends its wire encoding to dst in
// one pass: the signature is computed over the protected region already
// written into dst and appended straight into the envelope, so signing
// into a pooled buffer allocates nothing. It sets p.Cert and leaves
// p.Signature aliasing the returned buffer — valid only while the caller
// owns that buffer, so it suits packets dropped once they are sent
// (beacons), not ones a GF buffer or CBF timer retains (use Sign).
func (p *Packet) appendSignedMarshal(dst []byte, signer security.Signer) []byte {
	p.Cert = signer.Certificate()
	dst = append(dst, p.Basic.Version, p.Basic.RHL)
	dst = binary.BigEndian.AppendUint32(dst, p.Basic.LifetimeMs)
	start := len(dst)
	dst = p.appendProtected(dst)
	dst, p.Signature = security.AppendSignedEnvelope(dst, signer, dst[start:])
	if p.Ext.Mode != ExtModeNone {
		dst = p.appendExt(dst)
	}
	return dst
}

// Verify checks the envelope against the trust anchor. A nil error means
// the protected region is authentic (it may still be a replay — that is
// the point of the paper).
func (p *Packet) Verify(v security.Verifier, now time.Duration) error {
	return v.Verify(security.SignedMessage{
		Cert:      p.Cert,
		Protected: p.protectedBytes(),
		Signature: p.Signature,
	}, now)
}

// AppendMarshal appends the packet's wire encoding to dst and returns
// the extended slice. It writes the basic header, protected region and
// envelope in one pass — no intermediate protected-bytes buffer — so
// marshalling into a pooled buffer allocates nothing.
func (p *Packet) AppendMarshal(dst []byte) []byte {
	// Basic header (unsigned).
	dst = append(dst, p.Basic.Version, p.Basic.RHL)
	dst = binary.BigEndian.AppendUint32(dst, p.Basic.LifetimeMs)
	// Protected region.
	dst = p.appendProtected(dst)
	// Envelope.
	dst = security.AppendEnvelope(dst, p.Cert, p.Signature)
	// Routing-extension trailer (unsigned), only when a recovery mode is
	// active: greedy frames stay byte-identical to the pre-arena format.
	if p.Ext.Mode != ExtModeNone {
		dst = p.appendExt(dst)
	}
	return dst
}

// extMagic introduces the routing-extension trailer on the wire.
const extMagic = 0x50 // 'P'

// extWireLen is the encoded trailer size.
const extWireLen = 1 + 1 + 8 + 4 + 8 + 8

func (p *Packet) appendExt(dst []byte) []byte {
	dst = append(dst, extMagic, uint8(p.Ext.Mode))
	dst = appendPoint(dst, p.Ext.Lp)
	dst = binary.BigEndian.AppendUint32(dst, uint32(cm(p.Ext.LfDist)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Ext.E0From))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Ext.E0To))
	return dst
}

// decodeExt parses the routing-extension trailer from the bytes after
// the envelope. No trailer (len 0) leaves the zero Ext.
func (p *Packet) decodeExt(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if len(b) != extWireLen || b[0] != extMagic {
		return ErrBadExt
	}
	p.Ext.Mode = ExtMode(b[1])
	if p.Ext.Mode == ExtModeNone || p.Ext.Mode > ExtModePerimeter {
		return ErrBadExt
	}
	lp, err := decodePoint(b[2:])
	if err != nil {
		return err
	}
	p.Ext.Lp = lp
	p.Ext.LfDist = meters(int32(binary.BigEndian.Uint32(b[10:])))
	p.Ext.E0From = Address(binary.BigEndian.Uint64(b[14:]))
	p.Ext.E0To = Address(binary.BigEndian.Uint64(b[22:]))
	return nil
}

// Marshal encodes the packet for transmission into a fresh buffer.
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, 128+len(p.Payload)))
}

// Unmarshal decodes a packet from wire bytes.
func Unmarshal(b []byte) (*Packet, error) {
	p, _, err := unmarshalWire(b, nil)
	return p, err
}

// inlineTail is the frame-tail size an ownedPacket stores inline: a
// beacon's tail (empty payload + SimCA envelope) is 118 bytes, and 120
// keeps the whole block in the 384-byte size class.
const inlineTail = 120

// ownedPacket is a decoded packet together with the storage its byte
// fields point into, so a beacon decodes with a single allocation, or
// none into a reused one. Tails longer than inline (payload-bearing
// frames) decode into a plain Packet plus one heap copy of the tail
// instead.
type ownedPacket struct {
	Packet
	inline [inlineTail]byte
}

// unmarshalWire decodes a packet and additionally reports where the
// protected (signed) region ends: b[basicHeaderLen:protEnd] is exactly
// the byte range the source signed, so a verifier holding the wire bytes
// can check the signature without re-serializing the packet.
//
// The decoded packet never aliases b (frame payloads are pooled and
// reused): the tail after the payload length — payload, envelope and
// any extension trailer — is copied once into storage the packet owns,
// and Payload, Cert and Signature are capacity-limited subslices of
// that copy.
//
// A non-nil scratch receives a beacon whose tail fits inline, in place
// of a fresh ownedPacket; every other packet type is allocated, because
// forwarders and the attacker keep forks of it whose byte fields alias
// its storage. A packet decoded into scratch is valid only until the
// next decode into it.
func unmarshalWire(b []byte, scratch *ownedPacket) (p *Packet, protEnd int, err error) {
	wire := b
	// The header decodes into a stack value; the heap block is sized
	// once the tail length is known.
	var pk Packet
	if len(b) < 6 {
		return nil, 0, ErrTruncated
	}
	pk.Basic.Version = b[0]
	if pk.Basic.Version != protocolVersion {
		return nil, 0, ErrBadVersion
	}
	pk.Basic.RHL = b[1]
	pk.Basic.LifetimeMs = binary.BigEndian.Uint32(b[2:])
	b = b[basicHeaderLen:]

	if len(b) < 4 {
		return nil, 0, ErrTruncated
	}
	pk.Type = PacketType(b[0])
	pk.TrafficClass = b[1]
	pk.SN = binary.BigEndian.Uint16(b[2:])
	b = b[4:]

	pv, err := decodePV(b)
	if err != nil {
		return nil, 0, err
	}
	pk.SourcePV = pv
	b = b[pvWireLen:]

	switch pk.Type {
	case TypeBeacon:
	case TypeGeoUnicast:
		if len(b) < 16 {
			return nil, 0, ErrTruncated
		}
		pk.DestAddr = Address(binary.BigEndian.Uint64(b))
		pos, err := decodePoint(b[8:])
		if err != nil {
			return nil, 0, err
		}
		pk.DestPos = pos
		b = b[16:]
	case TypeGeoBroadcast:
		area, n, err := decodeArea(b)
		if err != nil {
			return nil, 0, err
		}
		pk.Area = area
		b = b[n:]
	default:
		return nil, 0, ErrBadType
	}

	if len(b) < 2 {
		return nil, 0, ErrTruncated
	}
	plen := int(binary.BigEndian.Uint16(b))
	if plen > maxPayload {
		return nil, 0, fmt.Errorf("geonet: payload length %d exceeds maximum %d", plen, maxPayload)
	}
	if len(b) < 2+plen {
		return nil, 0, ErrTruncated
	}
	b = b[2:]
	protEnd = len(wire) - len(b) + plen
	if len(b) <= inlineTail {
		op := scratch
		if op == nil || pk.Type != TypeBeacon {
			op = new(ownedPacket)
		}
		op.Packet = pk
		p, b = &op.Packet, op.inline[:copy(op.inline[:], b)]
	} else {
		p, b = new(Packet), append([]byte(nil), b...)
		*p = pk
	}
	if plen > 0 {
		// Zero-length payloads stay nil, as locally built packets have them.
		p.Payload = b[:plen:plen]
	}
	b = b[plen:]

	cert, sig, n, err := security.DecodeEnvelope(b)
	if err != nil {
		return nil, 0, err
	}
	p.Cert = cert
	p.Signature = sig
	if err := p.decodeExt(b[n:]); err != nil {
		return nil, 0, err
	}
	return p, protEnd, nil
}

// Clone returns a deep copy suitable for independent mutation of any
// field, including protected bytes (a tampered replay; the attacker
// rewrites only the basic header and uses Fork). Forwarding paths that
// only rewrite the basic header should use Fork instead.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	q.Signature = append([]byte(nil), p.Signature...)
	return &q
}

// Fork returns a copy-on-write copy for the per-hop forwarding path: the
// fork owns its mutable Basic Header (and every other scalar field),
// while Payload, Signature and the certificate byte slices remain shared
// with the original. The shared bytes are immutable by contract — the
// protected region cannot change in flight without breaking the
// signature, so forwarders never need to write them. Callers that DO
// mutate protected bytes (tampering experiments) must use Clone.
func (p *Packet) Fork() *Packet {
	q := *p
	return &q
}
