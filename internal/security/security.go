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
// derive, which preserves both properties inside a simulation at ~100 ns
// per operation.
package security

import (
	"crypto/hmac"
	"crypto/sha256"
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
	root [32]byte
	// enrolled caches issued certificates and signing keys so that Verify
	// is a map lookup plus one MAC (the hot path of the simulator).
	enrolled map[StationID]*simEnrollment
}

// simEnrollment is one station's issued certificate and MAC state. The
// station's signer and the CA's verifier share it: both compute the same
// keyed MAC, so one warmed state serves both sides.
type simEnrollment struct {
	cert Certificate

	// mu guards the cached MAC state below. Signing and verification run
	// on the engine goroutine of whichever run owns this CA, but the
	// parallel experiment runner and the concurrency tests may sign and
	// verify from many goroutines, so the hot path takes an (uncontended)
	// mutex instead of assuming single-threaded use.
	mu sync.Mutex
	// mac is the station's HMAC state, created once at enrolment and
	// reset between messages: sign and verify are Reset+Write+Sum with
	// zero allocations instead of a fresh hmac.New per message.
	mac hash.Hash
	// sum is the scratch digest buffer verify's Sum appends into.
	sum [sha256.Size]byte
}

// appendSign appends the station MAC over protected to dst. Write
// consumes protected before Sum appends, so protected may alias dst.
func (rec *simEnrollment) appendSign(dst, protected []byte) []byte {
	rec.mu.Lock()
	rec.mac.Reset()
	rec.mac.Write(protected)
	dst = rec.mac.Sum(dst)
	rec.mu.Unlock()
	return dst
}

// verify recomputes the station MAC over protected into the cached state
// and reports whether it matches signature.
func (rec *simEnrollment) verify(protected, signature []byte) bool {
	rec.mu.Lock()
	rec.mac.Reset()
	rec.mac.Write(protected)
	digest := rec.mac.Sum(rec.sum[:0])
	ok := hmac.Equal(digest, signature)
	rec.mu.Unlock()
	return ok
}

// warmMAC builds a station HMAC state and runs one full
// Reset/Write/Sum cycle so the one-time internal state marshalling
// happens at enrolment, leaving the per-message path allocation-free.
func warmMAC(key []byte) hash.Hash {
	mac := hmac.New(sha256.New, key)
	var scratch [sha256.Size]byte
	mac.Reset()
	mac.Write(scratch[:])
	mac.Sum(scratch[:0])
	mac.Reset()
	return mac
}

var _ Verifier = (*SimCA)(nil)

// NewSimCA constructs a CA with the given root secret seed.
func NewSimCA(seed uint64) *SimCA {
	ca := &SimCA{enrolled: make(map[StationID]*simEnrollment)}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	ca.root = sha256.Sum256(buf[:])
	return ca
}

// stationKey derives the per-station MAC key.
func (ca *SimCA) stationKey(id StationID) []byte {
	mac := hmac.New(sha256.New, ca.root[:])
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(id))
	mac.Write(buf[:])
	return mac.Sum(nil)
}

func (ca *SimCA) endorse(c *Certificate) {
	mac := hmac.New(sha256.New, ca.root[:])
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(c.Station))
	mac.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(c.NotAfter))
	mac.Write(buf[:])
	mac.Write(c.PublicKey)
	c.issuerSig = mac.Sum(nil)
}

// Enroll issues a certificate and signer for a station. notAfter of zero
// means the certificate never expires within the run.
func (ca *SimCA) Enroll(id StationID, notAfter time.Duration) Signer {
	key := ca.stationKey(id)
	cert := Certificate{Station: id, NotAfter: notAfter}
	// The "public key" of the MAC scheme is a commitment to the key; the
	// verifier recomputes the MAC from the CA side, so this is only used
	// to bind the cert bytes.
	h := sha256.Sum256(key)
	cert.PublicKey = h[:]
	ca.endorse(&cert)
	rec := &simEnrollment{cert: cert, mac: warmMAC(key)}
	ca.enrolled[id] = rec
	return &simSigner{rec: rec}
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
	if !rec.verify(msg.Protected, msg.Signature) {
		return ErrBadSignature
	}
	return nil
}

// simSigner signs under its station's enrolment record, sharing the
// warmed MAC state (and its mutex) with the CA's verifier.
type simSigner struct {
	rec *simEnrollment
}

var _ Signer = (*simSigner)(nil)

func (s *simSigner) AppendSign(dst, protected []byte) []byte {
	return s.rec.appendSign(dst, protected)
}

func (s *simSigner) Certificate() Certificate { return s.rec.cert }
