// Package security models the ITS security envelope the paper's threat
// model assumes (ETSI TS 102 731 / IEEE 1609.2): a certification authority
// enrolls stations, stations sign outgoing GeoNetworking messages, and
// receivers verify signatures against CA-issued certificates.
//
// Two properties matter for the attacks and are enforced exactly:
//
//  1. Unforgeability: an outsider without CA enrolment cannot produce a
//     valid signature over chosen content, so forged beacons and modified
//     protected fields are rejected.
//  2. Replayability of the protected part: a captured message replayed
//     bit-for-bit still verifies, and mutating *unprotected* header fields
//     (the Basic Header carrying the remaining hop limit) does not
//     invalidate the signature. This is the RHL vulnerability.
//
// SimCA signs with a keyed SHA-256 MAC whose keys only the CA object can
// derive, which preserves both properties inside a simulation at under
// 600 ns and no allocation per signature or verification of a 200-byte
// message (BenchmarkSimSign 425–460 ns/op, BenchmarkSimVerify 395–560
// ns/op over repeated runs on a 2-vCPU Intel Xeon, Go 1.24).
package security

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"hash"
	"sync"
	"time"
)

// StationID identifies an enrolled station (vehicle or RSU). Pseudonyms
// are modeled as distinct station IDs certified by the same CA.
type StationID uint64

// Errors returned by verification.
var (
	ErrUnknownCertificate = errors.New("security: certificate not issued by this CA")
	ErrBadSignature       = errors.New("security: signature verification failed")
	ErrExpiredCertificate = errors.New("security: certificate expired")
	ErrNotEnrolled        = errors.New("security: station not enrolled")
)

// Certificate binds a station ID to signature verification material.
// CertData is opaque to callers; receivers pass certificates back to the
// Verifier they trust.
type Certificate struct {
	Station   StationID
	NotAfter  time.Duration // simulated expiry; zero means no expiry
	PublicKey []byte        // serialized verification key (signer-specific)
	issuerSig []byte        // CA's endorsement of (Station, NotAfter, PublicKey)
}

// SignedMessage is a message plus its authentication envelope. Protected
// is the integrity-covered byte range chosen by the caller (the
// GeoNetworking secured part: common header, position vectors, payload —
// but NOT the mutable basic header with the RHL).
type SignedMessage struct {
	Cert      Certificate
	Protected []byte
	Signature []byte
}

// Signer produces signatures for one station.
type Signer interface {
	// AppendSign appends the signature over protected to dst and returns
	// the extended slice. protected may alias dst (the beacon path signs
	// the protected region of the wire buffer it is still writing):
	// implementations read protected in full before appending to dst, so
	// the call is safe even when the append reallocates.
	AppendSign(dst, protected []byte) []byte
	// Certificate returns the CA-endorsed certificate to attach.
	Certificate() Certificate
}

// Verifier checks signed messages against a trust anchor.
type Verifier interface {
	// Verify returns nil when msg.Signature is a valid signature by the
	// certificate's station over msg.Protected and the certificate chains
	// to the trusted CA.
	Verify(msg SignedMessage, now time.Duration) error
}

// --- Simulation-grade CA -------------------------------------------------

// SimCA is the fast simulation PKI. Signing keys are HMAC keys derived
// from a CA-private root secret; only code holding the *SimCA (legitimate
// stations, via Enroll) can compute them. The attacker in our threat model
// never receives a Signer, mirroring "cannot acquire a certificate".
type SimCA struct {
	root macKey
	// enrolled caches issued certificates and signing keys so that Verify
	// is a map lookup plus one MAC (the hot path of the simulator).
	enrolled map[StationID]*simEnrollment

	// mu guards the scratch below, which every MAC the CA computes runs
	// through: key derivation, endorsement, and each station's signing
	// and verification. Signing and verification run on the engine
	// goroutine of whichever run owns this CA, but the concurrency tests
	// sign and verify from many goroutines, so the hot path takes an
	// (uncontended) mutex instead of assuming single-threaded use.
	mu sync.Mutex
	// h is the scratch SHA-256 digest a MAC restores its states into.
	h stateHash
	// sum holds a MAC's inner digest, and verify's outer one.
	sum [sha256.Size]byte
	// buf stages the messages and key blocks that Enroll hashes.
	buf [sha256.BlockSize]byte
}

// stateHash is a SHA-256 digest whose state can be saved and restored.
type stateHash interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// macKey is an HMAC-SHA-256 key in pre-keyed form: the marshalled
// SHA-256 states after the key's ipad block and after its opad block.
// Restoring them skips the two key blocks every MAC would otherwise hash.
type macKey [2][]byte

// simEnrollment is one station's issued certificate and MAC key. It is
// the station's signer, and the CA's verifier checks the station's
// messages against the same key.
type simEnrollment struct {
	ca   *SimCA
	cert Certificate
	key  macKey
	// pub and sig back cert.PublicKey and cert.issuerSig.
	pub, sig [sha256.Size]byte
}

var (
	_ Verifier = (*SimCA)(nil)
	_ Signer   = (*simEnrollment)(nil)
)

// NewSimCA constructs a CA with the given root secret seed.
func NewSimCA(seed uint64) *SimCA {
	ca := &SimCA{
		enrolled: make(map[StationID]*simEnrollment),
		h:        sha256.New().(stateHash),
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	root := sha256.Sum256(buf[:])
	ca.root = ca.preKey(root[:])
	return ca
}

// preKey returns key (at most one block long) in pre-keyed form. The
// caller holds ca.mu, or is NewSimCA.
func (ca *SimCA) preKey(key []byte) macKey {
	var k macKey
	for i, pad := range [2]byte{0x36, 0x5c} {
		for j := range ca.buf {
			ca.buf[j] = pad
		}
		for j, b := range key {
			ca.buf[j] ^= b
		}
		ca.h.Reset()
		ca.h.Write(ca.buf[:])
		// Marshalling a SHA-256 state never fails.
		k[i], _ = ca.h.MarshalBinary()
	}
	return k
}

// appendMAC appends HMAC-SHA-256 of msg under key to dst. It reads msg
// in full before it appends, so msg may alias dst, and dst may be
// ca.sum[:0]. The caller holds ca.mu.
func (ca *SimCA) appendMAC(dst []byte, key *macKey, msg []byte) []byte {
	// Both states were marshalled from a digest of this type, so they
	// always restore.
	_ = ca.h.UnmarshalBinary(key[0])
	ca.h.Write(msg)
	inner := ca.h.Sum(ca.sum[:0])
	_ = ca.h.UnmarshalBinary(key[1])
	ca.h.Write(inner)
	return ca.h.Sum(dst)
}

// stationKey derives the per-station MAC key. The caller holds ca.mu.
func (ca *SimCA) stationKey(id StationID) [sha256.Size]byte {
	binary.BigEndian.PutUint64(ca.buf[:8], uint64(id))
	return [sha256.Size]byte(ca.appendMAC(ca.sum[:0], &ca.root, ca.buf[:8]))
}

// endorse signs (Station, NotAfter, PublicKey) of rec's certificate with
// the root key into rec.sig. The caller holds ca.mu.
func (ca *SimCA) endorse(rec *simEnrollment) {
	c := &rec.cert
	binary.BigEndian.PutUint64(ca.buf[:8], uint64(c.Station))
	binary.BigEndian.PutUint64(ca.buf[8:16], uint64(c.NotAfter))
	n := 16 + copy(ca.buf[16:], c.PublicKey)
	ca.appendMAC(rec.sig[:0], &ca.root, ca.buf[:n])
	c.issuerSig = rec.sig[:]
}

// Enroll issues a certificate and signer for a station. notAfter of zero
// means the certificate never expires within the run. Enroll is not safe
// for concurrent use: it writes the CA's enrolment map, so it runs on
// the goroutine that owns the CA, never alongside Verify.
func (ca *SimCA) Enroll(id StationID, notAfter time.Duration) Signer {
	rec := &simEnrollment{ca: ca, cert: Certificate{Station: id, NotAfter: notAfter}}
	ca.mu.Lock()
	key := ca.stationKey(id)
	rec.key = ca.preKey(key[:])
	// The "public key" of the MAC scheme is a commitment to the key; the
	// verifier recomputes the MAC from the CA side, so this is only used
	// to bind the cert bytes.
	rec.pub = sha256.Sum256(key[:])
	rec.cert.PublicKey = rec.pub[:]
	ca.endorse(rec)
	ca.mu.Unlock()
	ca.enrolled[id] = rec
	return rec
}

// Verify implements Verifier.
func (ca *SimCA) Verify(msg SignedMessage, now time.Duration) error {
	rec, ok := ca.enrolled[msg.Cert.Station]
	if !ok {
		return ErrNotEnrolled
	}
	// The CA issues exactly one certificate per station, so endorsement
	// checking reduces to comparing against the issued copy.
	if msg.Cert.NotAfter != rec.cert.NotAfter ||
		!hmac.Equal(rec.cert.PublicKey, msg.Cert.PublicKey) ||
		!hmac.Equal(rec.cert.issuerSig, msg.Cert.issuerSig) {
		return ErrUnknownCertificate
	}
	if msg.Cert.NotAfter != 0 && now > msg.Cert.NotAfter {
		return ErrExpiredCertificate
	}
	ca.mu.Lock()
	ok = hmac.Equal(ca.appendMAC(ca.sum[:0], &rec.key, msg.Protected), msg.Signature)
	ca.mu.Unlock()
	if !ok {
		return ErrBadSignature
	}
	return nil
}

// AppendSign implements Signer.
func (rec *simEnrollment) AppendSign(dst, protected []byte) []byte {
	rec.ca.mu.Lock()
	dst = rec.ca.appendMAC(dst, &rec.key, protected)
	rec.ca.mu.Unlock()
	return dst
}

// Certificate implements Signer.
func (rec *simEnrollment) Certificate() Certificate { return rec.cert }
