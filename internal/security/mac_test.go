package security

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"
)

// refHMAC is HMAC-SHA-256 as crypto/hmac computes it.
func refHMAC(key []byte, msg ...[]byte) []byte {
	mac := hmac.New(sha256.New, key)
	for _, m := range msg {
		mac.Write(m)
	}
	return mac.Sum(nil)
}

func be64(v uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, v)
}

// TestAppendMACMatchesHMAC: the CA's MAC routine, restoring a station
// key's pre-keyed states, equals crypto/hmac under that key, for
// messages on both sides of SHA-256's padding and block boundaries
// (55/56 bytes leave the length field in or out of the last block) and
// for random lengths, and whether it appends to nil, to a prefix or into
// the CA's own scratch.
func TestAppendMACMatchesHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 55, 56, 63, 64, 65}
	for i := 0; i < 20; i++ {
		lengths = append(lengths, rng.Intn(301))
	}
	ca := NewSimCA(5)
	for _, id := range []StationID{0, 1, 42, 1 << 40} {
		key := ca.stationKey(id)
		pk := ca.preKey(key[:])
		for _, n := range lengths {
			msg := make([]byte, n)
			rng.Read(msg)
			want := refHMAC(key[:], msg)
			if got := ca.appendMAC(nil, &pk, msg); !bytes.Equal(got, want) {
				t.Fatalf("station %d, %d-byte message: MAC %x, want %x", id, n, got, want)
			}
			got := ca.appendMAC([]byte("prefix"), &pk, msg)
			if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
				t.Fatalf("station %d, %d-byte message: appended MAC %x, want prefix + %x", id, n, got, want)
			}
			if got := ca.appendMAC(ca.sum[:0], &pk, msg); !bytes.Equal(got, want) {
				t.Fatalf("station %d, %d-byte message: MAC into scratch %x, want %x", id, n, got, want)
			}
		}
	}
}

// TestSimCAKeysMatchReference recomputes, with crypto/hmac, every byte
// the CA derives: the root key (SHA-256 of the big-endian seed), the
// station key (HMAC of the station ID under the root), the certificate's
// public key (SHA-256 of the station key), its endorsement (HMAC of
// station, expiry and public key under the root) and a signature (HMAC
// under the station key). Runs and traces carry these bytes, so they
// must not depend on how the CA computes its MACs.
func TestSimCAKeysMatchReference(t *testing.T) {
	msg := []byte("beacon position vector")
	for _, seed := range []uint64{0, 1, 7, 0xBAD5EED} {
		ca := NewSimCA(seed)
		root := sha256.Sum256(be64(seed))
		for _, id := range []StationID{0, 1, 42, 1<<48 + 3} {
			for _, notAfter := range []time.Duration{0, 42 * time.Second} {
				key := refHMAC(root[:], be64(uint64(id)))
				if got := ca.stationKey(id); !bytes.Equal(got[:], key) {
					t.Fatalf("seed %d station %d: key %x, want %x", seed, id, got, key)
				}
				pub := sha256.Sum256(key)
				sig := refHMAC(root[:], be64(uint64(id)), be64(uint64(notAfter)), pub[:])
				signer := ca.Enroll(id, notAfter)
				cert := signer.Certificate()
				if cert.Station != id || cert.NotAfter != notAfter ||
					!bytes.Equal(cert.PublicKey, pub[:]) || !bytes.Equal(cert.issuerSig, sig) {
					t.Fatalf("seed %d station %d expiry %v: certificate %+v, want public key %x and endorsement %x",
						seed, id, notAfter, cert, pub, sig)
				}
				if got, want := signer.AppendSign(nil, msg), refHMAC(key, msg); !bytes.Equal(got, want) {
					t.Fatalf("seed %d station %d: signature %x, want %x", seed, id, got, want)
				}
			}
		}
	}
}

// TestSimCAEnrollAllocs pins Enroll's allocations, measured by
// re-enrolling one station so the map never grows: the enrolment record
// and the station key's two marshalled states, 3 in all. The race
// detector's instrumentation makes MarshalBinary allocate twice, so the
// states are counted as whatever one marshalling costs.
func TestSimCAEnrollAllocs(t *testing.T) {
	h := sha256.New().(stateHash)
	perState := testing.AllocsPerRun(100, func() {
		h.MarshalBinary()
	})
	ca := NewSimCA(7)
	ca.Enroll(1, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		ca.Enroll(1, 0)
	})
	if want := 1 + 2*perState; allocs != want {
		t.Fatalf("SimCA.Enroll allocates %.1f/op, want %.0f (the record and two %.0f-allocation marshalled states)", allocs, want, perState)
	}
}
