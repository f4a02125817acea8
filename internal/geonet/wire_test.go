package geonet

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/security"
)

func testSigner(t *testing.T, id security.StationID) (security.Signer, security.Verifier) {
	t.Helper()
	ca := security.NewSimCA(1)
	return ca.Enroll(id, 0), ca
}

func samplePV() PositionVector {
	return PositionVector{
		Addr:      42,
		Timestamp: 12345 * time.Millisecond,
		Pos:       geo.Pt(1234.56, -7.5),
		Speed:     29.97,
		Heading:   270,
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	signer, verifier := testSigner(t, 42)
	p := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 1, LifetimeMs: 3000},
		Type:     TypeBeacon,
		SourcePV: samplePV(),
	}
	p.Sign(signer)
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeBeacon || got.Basic != p.Basic {
		t.Fatalf("headers mangled: %+v", got)
	}
	if got.SourcePV.Addr != 42 || got.SourcePV.Timestamp != 12345*time.Millisecond {
		t.Fatalf("PV mangled: %+v", got.SourcePV)
	}
	if math.Abs(got.SourcePV.Pos.X-1234.56) > 0.005 || math.Abs(got.SourcePV.Pos.Y+7.5) > 0.005 {
		t.Fatalf("position lost precision: %v", got.SourcePV.Pos)
	}
	if math.Abs(got.SourcePV.Speed-29.97) > 0.005 {
		t.Fatalf("speed lost precision: %v", got.SourcePV.Speed)
	}
	if err := got.Verify(verifier, 0); err != nil {
		t.Fatalf("decoded beacon failed verification: %v", err)
	}
}

func TestGUCRoundTrip(t *testing.T) {
	signer, verifier := testSigner(t, 42)
	p := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 15, LifetimeMs: 60000},
		Type:     TypeGeoUnicast,
		SN:       777,
		SourcePV: samplePV(),
		DestAddr: 9001,
		DestPos:  geo.Pt(4020, 2.5),
		Payload:  []byte("hazard ahead"),
	}
	p.Sign(signer)
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.SN != 777 || got.DestAddr != 9001 {
		t.Fatalf("GUC fields mangled: %+v", got)
	}
	if got.DestPos.DistanceTo(geo.Pt(4020, 2.5)) > 0.01 {
		t.Fatalf("dest position mangled: %v", got.DestPos)
	}
	if !bytes.Equal(got.Payload, []byte("hazard ahead")) {
		t.Fatalf("payload mangled: %q", got.Payload)
	}
	if err := got.Verify(verifier, 0); err != nil {
		t.Fatal(err)
	}
	if got.Key() != (Key{Src: 42, SN: 777}) {
		t.Fatalf("Key = %+v", got.Key())
	}
}

func TestGBCRoundTripAllAreaKinds(t *testing.T) {
	signer, verifier := testSigner(t, 42)
	areas := []geo.Area{
		geo.NewCircle(geo.Pt(2000, 0), 150),
		geo.NewRect(geo.Pt(2000, 0), 2000, 20, 90),
		geo.NewEllipse(geo.Pt(100, 50), 300, 60, 45),
	}
	for _, area := range areas {
		p := &Packet{
			Basic:    BasicHeader{Version: 1, RHL: 10, LifetimeMs: 5000},
			Type:     TypeGeoBroadcast,
			SN:       1,
			SourcePV: samplePV(),
			Area:     area,
			Payload:  []byte("warning"),
		}
		p.Sign(signer)
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("%T: %v", area, err)
		}
		if err := got.Verify(verifier, 0); err != nil {
			t.Fatalf("%T: verify: %v", area, err)
		}
		// The decoded area must agree with the original on membership.
		probes := []geo.Point{
			area.Center(), geo.Pt(0, 0), geo.Pt(2000, 10), geo.Pt(3999, 0), geo.Pt(150, 80),
		}
		for _, q := range probes {
			if got.Area.Contains(q) != area.Contains(q) {
				t.Fatalf("%T: decoded area disagrees at %v", area, q)
			}
		}
	}
}

func TestRHLMutationPreservesSignature(t *testing.T) {
	// THE vulnerability: the RHL lives in the unsigned basic header, so
	// the attacker can rewrite it and the packet still verifies.
	signer, verifier := testSigner(t, 42)
	p := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 10, LifetimeMs: 5000},
		Type:     TypeGeoBroadcast,
		SN:       5,
		SourcePV: samplePV(),
		Area:     geo.NewCircle(geo.Pt(0, 0), 4000),
		Payload:  []byte("brake warning"),
	}
	p.Sign(signer)

	captured, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	modified := captured.Clone()
	modified.Basic.RHL = 1 // attacker's modification
	reinjected, err := Unmarshal(modified.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if reinjected.Basic.RHL != 1 {
		t.Fatalf("RHL = %d after reinjection, want 1", reinjected.Basic.RHL)
	}
	if err := reinjected.Verify(verifier, 0); err != nil {
		t.Fatalf("RHL-modified packet must still verify (unprotected field): %v", err)
	}
}

func TestProtectedFieldMutationBreaksSignature(t *testing.T) {
	signer, verifier := testSigner(t, 42)
	base := func() *Packet {
		p := &Packet{
			Basic:    BasicHeader{Version: 1, RHL: 10, LifetimeMs: 5000},
			Type:     TypeGeoUnicast,
			SN:       5,
			SourcePV: samplePV(),
			DestAddr: 7,
			DestPos:  geo.Pt(100, 0),
			Payload:  []byte("msg"),
		}
		p.Sign(signer)
		return p
	}
	mutations := map[string]func(*Packet){
		"source position": func(p *Packet) { p.SourcePV.Pos = geo.Pt(9999, 0) },
		"source address":  func(p *Packet) { p.SourcePV.Addr = 666 },
		"sequence number": func(p *Packet) { p.SN = 6 },
		"payload":         func(p *Packet) { p.Payload = []byte("msX") },
		"dest position":   func(p *Packet) { p.DestPos = geo.Pt(0, 0) },
	}
	for name, mutate := range mutations {
		p := base()
		mutate(p)
		if err := p.Verify(verifier, 0); err == nil {
			t.Errorf("mutating %s did not break the signature", name)
		}
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	signer, _ := testSigner(t, 42)
	p := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 10, LifetimeMs: 5000},
		Type:     TypeGeoBroadcast,
		SN:       5,
		SourcePV: samplePV(),
		Area:     geo.NewCircle(geo.Pt(0, 0), 100),
		Payload:  []byte("xyz"),
	}
	p.Sign(signer)
	wire := p.Marshal()
	for cut := 0; cut < len(wire); cut += 3 {
		if _, err := Unmarshal(wire[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
}

func TestUnmarshalBadVersion(t *testing.T) {
	signer, _ := testSigner(t, 42)
	p := &Packet{Basic: BasicHeader{Version: 1, RHL: 1}, Type: TypeBeacon, SourcePV: samplePV()}
	p.Sign(signer)
	wire := p.Marshal()
	wire[0] = 99
	if _, err := Unmarshal(wire); err != ErrBadVersion {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

// TestUnmarshalBadType: a type byte outside the three supported types
// fails decode, including 4–7, the retired single-hop broadcast,
// topologically-scoped broadcast and location-service request and reply.
func TestUnmarshalBadType(t *testing.T) {
	signer, _ := testSigner(t, 42)
	p := &Packet{Basic: BasicHeader{Version: 1, RHL: 1}, Type: TypeBeacon, SourcePV: samplePV()}
	p.Sign(signer)
	for _, typ := range []byte{4, 5, 6, 7, 200} {
		wire := p.Marshal()
		wire[basicHeaderLen] = typ // the type byte leads the protected region
		if _, err := Unmarshal(wire); err != ErrBadType {
			t.Errorf("type %d: err = %v, want ErrBadType", typ, err)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	signer, _ := testSigner(t, 42)
	p := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 10},
		Type:     TypeGeoBroadcast,
		SN:       1,
		SourcePV: samplePV(),
		Area:     geo.NewCircle(geo.Pt(0, 0), 100),
		Payload:  []byte("abc"),
	}
	p.Sign(signer)
	q := p.Clone()
	q.Basic.RHL = 1
	q.Payload[0] = 'X'
	if p.Basic.RHL != 10 || p.Payload[0] != 'a' {
		t.Fatal("Clone shares state with original")
	}
}

func TestPVRoundTripProperty(t *testing.T) {
	f := func(addr uint64, ts uint32, xcm, ycm int32, speedCms int16, headingTenths uint16) bool {
		pv := PositionVector{
			Addr:      Address(addr),
			Timestamp: time.Duration(ts) * time.Millisecond,
			Pos:       geo.Pt(float64(xcm)/100, float64(ycm)/100),
			Speed:     float64(speedCms) / 100,
			Heading:   float64(headingTenths%3600) / 10,
		}
		buf := appendPV(nil, pv)
		got, err := decodePV(buf)
		if err != nil {
			return false
		}
		return got.Addr == pv.Addr &&
			got.Timestamp == pv.Timestamp &&
			math.Abs(got.Pos.X-pv.Pos.X) < 0.005 &&
			math.Abs(got.Pos.Y-pv.Pos.Y) < 0.005 &&
			math.Abs(got.Speed-pv.Speed) < 0.005 &&
			math.Abs(got.Heading-pv.Heading) < 0.05
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarshalFuzzNoPanic(t *testing.T) {
	// Unmarshal must reject, not panic on, arbitrary bytes.
	f := func(b []byte) bool {
		_, err := Unmarshal(b)
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
