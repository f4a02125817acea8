package security

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestSimCASignVerify(t *testing.T) {
	ca := NewSimCA(1)
	signer := ca.Enroll(42, 0)
	msg := []byte("beacon: position vector of station 42")
	sm := SignedMessage{
		Cert:      signer.Certificate(),
		Protected: msg,
		Signature: signer.AppendSign(nil, msg),
	}
	if err := ca.Verify(sm, 0); err != nil {
		t.Fatalf("Verify of honest message failed: %v", err)
	}
}

func TestSimCAReplayStillVerifies(t *testing.T) {
	// The core attack primitive: a bit-for-bit replay by a third party is
	// indistinguishable from the original and MUST verify.
	ca := NewSimCA(1)
	signer := ca.Enroll(42, 0)
	msg := []byte("pv")
	original := SignedMessage{
		Cert:      signer.Certificate(),
		Protected: msg,
		Signature: signer.AppendSign(nil, msg),
	}
	replayed := SignedMessage{
		Cert:      original.Cert,
		Protected: append([]byte(nil), original.Protected...),
		Signature: append([]byte(nil), original.Signature...),
	}
	if err := ca.Verify(replayed, 5*time.Second); err != nil {
		t.Fatalf("replayed message must verify: %v", err)
	}
}

func TestSimCATamperedProtectedFails(t *testing.T) {
	ca := NewSimCA(1)
	signer := ca.Enroll(42, 0)
	msg := []byte("position=100")
	sm := SignedMessage{Cert: signer.Certificate(), Protected: msg, Signature: signer.AppendSign(nil, msg)}
	sm.Protected = []byte("position=999") // forged PV
	if err := ca.Verify(sm, 0); err != ErrBadSignature {
		t.Fatalf("tampered message verified: err = %v, want ErrBadSignature", err)
	}
}

func TestSimCAForgedSignatureFails(t *testing.T) {
	ca := NewSimCA(1)
	signer := ca.Enroll(42, 0)
	sm := SignedMessage{
		Cert:      signer.Certificate(),
		Protected: []byte("fake beacon"),
		Signature: bytes.Repeat([]byte{0xAB}, 32), // attacker guess
	}
	if err := ca.Verify(sm, 0); err != ErrBadSignature {
		t.Fatalf("forged signature verified: err = %v", err)
	}
}

func TestSimCAUnenrolledStationFails(t *testing.T) {
	ca := NewSimCA(1)
	other := NewSimCA(2)
	foreign := other.Enroll(7, 0)
	msg := []byte("hello")
	sm := SignedMessage{Cert: foreign.Certificate(), Protected: msg, Signature: foreign.AppendSign(nil, msg)}
	if err := ca.Verify(sm, 0); err == nil {
		t.Fatal("message from foreign CA verified")
	}
}

func TestSimCAFakeCertificateFails(t *testing.T) {
	ca := NewSimCA(1)
	signer := ca.Enroll(42, 0)
	msg := []byte("m")
	sm := SignedMessage{Cert: signer.Certificate(), Protected: msg, Signature: signer.AppendSign(nil, msg)}
	// Attacker rewrites the certificate to claim a different station that
	// IS enrolled (trying to impersonate station 43).
	ca.Enroll(43, 0)
	sm.Cert.Station = 43
	if err := ca.Verify(sm, 0); err == nil {
		t.Fatal("certificate with swapped station ID verified")
	}
}

func TestSimCAExpiredCertificate(t *testing.T) {
	ca := NewSimCA(1)
	signer := ca.Enroll(42, 10*time.Second)
	msg := []byte("m")
	sm := SignedMessage{Cert: signer.Certificate(), Protected: msg, Signature: signer.AppendSign(nil, msg)}
	if err := ca.Verify(sm, 5*time.Second); err != nil {
		t.Fatalf("unexpired certificate rejected: %v", err)
	}
	if err := ca.Verify(sm, 11*time.Second); err != ErrExpiredCertificate {
		t.Fatalf("expired certificate verified: err = %v", err)
	}
}

func TestSimCADeterministicAcrossInstances(t *testing.T) {
	// Two CAs with the same seed issue the same keys: lets A/B runs share
	// identical security state.
	a := NewSimCA(9)
	b := NewSimCA(9)
	sa := a.Enroll(5, 0)
	b.Enroll(5, 0)
	msg := []byte("cross-check")
	sm := SignedMessage{Cert: sa.Certificate(), Protected: msg, Signature: sa.AppendSign(nil, msg)}
	if err := b.Verify(sm, 0); err != nil {
		t.Fatalf("same-seed CA failed to verify: %v", err)
	}
}

func TestSimSignerProperty(t *testing.T) {
	ca := NewSimCA(3)
	signer := ca.Enroll(100, 0)
	cert := signer.Certificate()
	f := func(msg []byte) bool {
		sm := SignedMessage{Cert: cert, Protected: msg, Signature: signer.AppendSign(nil, msg)}
		if ca.Verify(sm, 0) != nil {
			return false
		}
		// Any single-byte mutation must break verification.
		if len(msg) > 0 {
			mutated := append([]byte(nil), msg...)
			mutated[0] ^= 0x01
			sm2 := SignedMessage{Cert: cert, Protected: mutated, Signature: sm.Signature}
			if ca.Verify(sm2, 0) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestECDSASignVerify(t *testing.T) {
	ca, err := NewECDSACA()
	if err != nil {
		t.Fatal(err)
	}
	signer, err := ca.Enroll(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("real crypto beacon")
	sm := SignedMessage{Cert: signer.Certificate(), Protected: msg, Signature: signer.AppendSign(nil, msg)}
	if err := ca.Verify(sm, 0); err != nil {
		t.Fatalf("ECDSA verify failed: %v", err)
	}
	// Replay still verifies.
	if err := ca.Verify(sm, time.Minute); err != nil {
		t.Fatalf("ECDSA replay failed: %v", err)
	}
	// Tampering fails.
	sm.Protected = []byte("real crypto beacoX")
	if err := ca.Verify(sm, 0); err != ErrBadSignature {
		t.Fatalf("tampered ECDSA message: err = %v", err)
	}
}

func TestECDSAForgedCertFails(t *testing.T) {
	ca, err := NewECDSACA()
	if err != nil {
		t.Fatal(err)
	}
	signer, err := ca.Enroll(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	sm := SignedMessage{Cert: signer.Certificate(), Protected: msg, Signature: signer.AppendSign(nil, msg)}
	sm.Cert.NotAfter = time.Hour // mutate endorsed field
	if err := ca.Verify(sm, 0); err != ErrUnknownCertificate {
		t.Fatalf("mutated certificate: err = %v, want ErrUnknownCertificate", err)
	}
}

func TestCertificateWireRoundTrip(t *testing.T) {
	ca := NewSimCA(1)
	signer := ca.Enroll(1234, 42*time.Second)
	cert := signer.Certificate()

	buf := AppendCertificate(nil, cert)
	got, n, err := DecodeCertificate(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d bytes, want %d", n, len(buf))
	}
	if got.Station != cert.Station || got.NotAfter != cert.NotAfter {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, cert)
	}
	if !bytes.Equal(got.PublicKey, cert.PublicKey) || !bytes.Equal(got.issuerSig, cert.issuerSig) {
		t.Fatal("round trip lost key material")
	}
	// And a decoded certificate must still verify.
	msg := []byte("payload")
	sm := SignedMessage{Cert: got, Protected: msg, Signature: signer.AppendSign(nil, msg)}
	if err := ca.Verify(sm, 0); err != nil {
		t.Fatalf("decoded certificate failed verification: %v", err)
	}
}

func TestEnvelopeWireRoundTrip(t *testing.T) {
	ca := NewSimCA(1)
	signer := ca.Enroll(7, 0)
	msg := []byte("body")
	sig := signer.AppendSign(nil, msg)

	buf := AppendEnvelope(nil, signer.Certificate(), sig)
	buf = append(buf, 0xDE, 0xAD) // trailing bytes must be left alone
	cert, gotSig, n, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf)-2 {
		t.Fatalf("consumed %d, want %d", n, len(buf)-2)
	}
	if !bytes.Equal(gotSig, sig) {
		t.Fatal("signature mangled in transit")
	}
	sm := SignedMessage{Cert: cert, Protected: msg, Signature: gotSig}
	if err := ca.Verify(sm, 0); err != nil {
		t.Fatalf("decoded envelope failed verification: %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	ca := NewSimCA(1)
	signer := ca.Enroll(7, 0)
	full := AppendEnvelope(nil, signer.Certificate(), signer.AppendSign(nil, []byte("x")))
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := DecodeEnvelope(full[:cut]); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded, want error", cut, len(full))
		}
	}
}

func TestDecodeOversizedBlobRejected(t *testing.T) {
	// A corrupt length field must not allocate unboundedly.
	b := make([]byte, 18)
	b[16] = 0xFF
	b[17] = 0xFF
	if _, _, err := DecodeCertificate(b); err == nil {
		t.Fatal("oversized blob length accepted")
	}
}

func BenchmarkSimSign(b *testing.B) {
	ca := NewSimCA(1)
	signer := ca.Enroll(1, 0)
	msg := bytes.Repeat([]byte{0x42}, 200)
	sig := make([]byte, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig = signer.AppendSign(sig[:0], msg)
	}
}

func BenchmarkSimVerify(b *testing.B) {
	ca := NewSimCA(1)
	signer := ca.Enroll(1, 0)
	msg := bytes.Repeat([]byte{0x42}, 200)
	sm := SignedMessage{Cert: signer.Certificate(), Protected: msg, Signature: signer.AppendSign(nil, msg)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ca.Verify(sm, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECDSAVerify(b *testing.B) {
	ca, err := NewECDSACA()
	if err != nil {
		b.Fatal(err)
	}
	signer, err := ca.Enroll(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0x42}, 200)
	sm := SignedMessage{Cert: signer.Certificate(), Protected: msg, Signature: signer.AppendSign(nil, msg)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ca.Verify(sm, 0); err != nil {
			b.Fatal(err)
		}
	}
}
