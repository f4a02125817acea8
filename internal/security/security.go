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
// Two Signer implementations are provided. SimSigner uses a keyed SHA-256
// MAC with keys derivable only through the CA object, which preserves both
// properties inside a simulation at ~100 ns per operation. ECDSASigner
// uses real P-256 signatures for fidelity tests. Experiments default to
// SimSigner; the two are interchangeable behind the same interfaces.
package security

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
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

// --- Real ECDSA CA -------------------------------------------------------

// ECDSACA is a production-grade trust anchor using ECDSA P-256, matching
// the signature suite of IEEE 1609.2. It is slower than SimCA and used in
// fidelity tests and anywhere cryptographic strength matters.
type ECDSACA struct {
	key      *ecdsa.PrivateKey
	enrolled map[StationID]*ecdsa.PublicKey
}

var _ Verifier = (*ECDSACA)(nil)

// NewECDSACA generates a fresh CA key pair.
func NewECDSACA() (*ECDSACA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("security: generating CA key: %w", err)
	}
	return &ECDSACA{key: key, enrolled: make(map[StationID]*ecdsa.PublicKey)}, nil
}

// Enroll issues an ECDSA certificate and signer for a station.
func (ca *ECDSACA) Enroll(id StationID, notAfter time.Duration) (Signer, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("security: generating station key: %w", err)
	}
	pub := elliptic.MarshalCompressed(elliptic.P256(), key.PublicKey.X, key.PublicKey.Y)
	cert := Certificate{Station: id, NotAfter: notAfter, PublicKey: pub}
	digest := certDigest(cert)
	sig, err := ecdsa.SignASN1(rand.Reader, ca.key, digest[:])
	if err != nil {
		return nil, fmt.Errorf("security: endorsing certificate: %w", err)
	}
	cert.issuerSig = sig
	ca.enrolled[id] = &key.PublicKey
	return &ecdsaSigner{key: key, cert: cert}, nil
}

// Verify implements Verifier.
func (ca *ECDSACA) Verify(msg SignedMessage, now time.Duration) error {
	if _, ok := ca.enrolled[msg.Cert.Station]; !ok {
		return ErrNotEnrolled
	}
	digest := certDigest(msg.Cert)
	if !ecdsa.VerifyASN1(&ca.key.PublicKey, digest[:], msg.Cert.issuerSig) {
		return ErrUnknownCertificate
	}
	if msg.Cert.NotAfter != 0 && now > msg.Cert.NotAfter {
		return ErrExpiredCertificate
	}
	x, y := elliptic.UnmarshalCompressed(elliptic.P256(), msg.Cert.PublicKey)
	if x == nil {
		return ErrUnknownCertificate
	}
	pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	h := sha256.Sum256(msg.Protected)
	if !ecdsa.VerifyASN1(pub, h[:], msg.Signature) {
		return ErrBadSignature
	}
	return nil
}

func certDigest(c Certificate) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(c.Station))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(c.NotAfter))
	h.Write(buf[:])
	h.Write(c.PublicKey)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

type ecdsaSigner struct {
	key  *ecdsa.PrivateKey
	cert Certificate
}

var _ Signer = (*ecdsaSigner)(nil)

func (s *ecdsaSigner) AppendSign(dst, protected []byte) []byte {
	h := sha256.Sum256(protected)
	sig, err := ecdsa.SignASN1(rand.Reader, s.key, h[:])
	if err != nil {
		// rand.Reader failing is unrecoverable; surface loudly.
		panic(fmt.Sprintf("security: ECDSA sign: %v", err))
	}
	return append(dst, sig...)
}

func (s *ecdsaSigner) Certificate() Certificate { return s.cert }
