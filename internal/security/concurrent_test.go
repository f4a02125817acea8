package security

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSimCAVerifyConcurrent hammers the sign and verify paths from as
// many goroutines as the parallel experiment runner would use, with the
// goroutines deliberately overlapping on station IDs. Every MAC of a CA,
// whichever station's, restores its key into the scratch digest the CA
// owns, so all the goroutines contend on that one digest. Run under
// -race this pins the CA mutex guarding the scratch; functionally it
// checks that concurrent signs and verifies neither corrupt digests
// (wrong signatures, false rejects) nor let tampered messages through
// (false accepts).
func TestSimCAVerifyConcurrent(t *testing.T) {
	const stations = 8
	ca := NewSimCA(7)
	msgs := make([]SignedMessage, stations)
	signers := make([]Signer, stations)
	for i := range msgs {
		id := StationID(i + 1)
		signer := ca.Enroll(id, 0)
		signers[i] = signer
		protected := []byte{byte(i), 0xCA, 0xFE, byte(i * 3)}
		msgs[i] = SignedMessage{
			Cert:      signer.Certificate(),
			Protected: protected,
			Signature: signer.AppendSign(nil, protected),
		}
	}
	tampered := make([]SignedMessage, stations)
	for i, m := range msgs {
		bad := m
		bad.Protected = append([]byte(nil), m.Protected...)
		bad.Protected[0] ^= 0xFF
		tampered[i] = bad
	}

	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sig := make([]byte, 0, 32)
			for i := 0; i < 2000; i++ {
				// Stride by worker so goroutines continuously cross over
				// the same enrollments rather than partitioning them.
				m := msgs[(i+w)%stations]
				sig = signers[(i+w)%stations].AppendSign(sig[:0], m.Protected)
				if !bytes.Equal(sig, m.Signature) {
					errs <- fmt.Errorf("station %d: concurrent signature %x, want %x", m.Cert.Station, sig, m.Signature)
					return
				}
				if err := ca.Verify(m, time.Second); err != nil {
					errs <- err
					return
				}
				if err := ca.Verify(tampered[(i+w)%stations], time.Second); err != ErrBadSignature {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("concurrent sign/verify: %v", err)
	}
}

// TestSimCAVerifyAllocs asserts the verify hot path is allocation-free:
// Verify is a map lookup plus one MAC that restores the station's
// pre-keyed states into the CA's scratch digest and sums into its
// scratch buffer.
func TestSimCAVerifyAllocs(t *testing.T) {
	ca := NewSimCA(7)
	signer := ca.Enroll(1, 0)
	protected := []byte("position vector + payload")
	msg := SignedMessage{
		Cert:      signer.Certificate(),
		Protected: protected,
		Signature: signer.AppendSign(nil, protected),
	}
	if err := ca.Verify(msg, time.Second); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := ca.Verify(msg, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SimCA.Verify allocates %.1f/op, want 0", allocs)
	}
}

// TestSimSignerSignAllocs pins the sign path to zero allocations when
// the caller supplies room for the signature: the station's pre-keyed
// states are restored into the CA's scratch digest and Sum appends into
// dst.
func TestSimSignerSignAllocs(t *testing.T) {
	ca := NewSimCA(7)
	signer := ca.Enroll(1, 0)
	protected := []byte("beacon position vector")
	dst := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		dst = signer.AppendSign(dst[:0], protected)
	})
	if allocs != 0 {
		t.Fatalf("simSigner.AppendSign allocates %.1f/op, want 0", allocs)
	}
}

// TestAppendSignAliasedFullBuffer signs a protected region that aliases
// dst when dst has no spare capacity, so the append must reallocate: the
// MAC reads protected before Sum appends, so the signature still covers
// the original bytes. AppendSignedEnvelope relies on exactly this.
func TestAppendSignAliasedFullBuffer(t *testing.T) {
	ca := NewSimCA(7)
	signer := ca.Enroll(1, 0)
	want := signer.AppendSign(nil, []byte("protected region"))

	dst := []byte("header|protected region")
	dst = dst[:len(dst):len(dst)]
	protected := dst[len("header|"):]
	out := signer.AppendSign(dst, protected)
	if string(out[:len(dst)]) != "header|protected region" || !bytes.Equal(out[len(dst):], want) {
		t.Fatalf("aliased AppendSign = %q, want the prefix kept and the signature over the original bytes", out)
	}

	env, sig := AppendSignedEnvelope(dst, signer, protected)
	cert, got, n, err := DecodeEnvelope(env[len(dst):])
	if err != nil || n != len(env)-len(dst) || !bytes.Equal(got, want) || !bytes.Equal(sig, want) {
		t.Fatalf("envelope signature %x / returned %x, want %x (n=%d, err=%v)", got, sig, want, n, err)
	}
	if err := ca.Verify(SignedMessage{Cert: cert, Protected: protected, Signature: got}, 0); err != nil {
		t.Fatalf("signed envelope does not verify: %v", err)
	}
}
