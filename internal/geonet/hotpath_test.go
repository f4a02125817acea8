package geonet

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/sim"
)

// Tests for the per-hop pipeline: COW forks must be wire-identical to
// eager clones, the decode-once cache must hand every receiver the same
// view, and the pooled paths must stay allocation-free.

func signedGBC(t testing.TB) (*Packet, security.Signer, security.Verifier) {
	t.Helper()
	ca := security.NewSimCA(1)
	signer := ca.Enroll(42, 0)
	p := &Packet{
		Basic:    BasicHeader{Version: 1, RHL: 16, LifetimeMs: 60000},
		Type:     TypeGeoBroadcast,
		SN:       9,
		SourcePV: samplePV(),
		Area:     geo.NewRect(geo.Pt(2000, 0), 2000, 30, 90),
		Payload:  []byte("cbf storm payload"),
	}
	p.Sign(signer)
	return p, signer, ca
}

func TestForkCloneWireEquivalence(t *testing.T) {
	src, _, verifier := signedGBC(t)
	captured, err := Unmarshal(src.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	// The forwarding mutation: decrement the RHL. The COW fork and the
	// eager deep clone must produce byte-identical wire frames.
	fork := captured.Fork()
	fork.Basic.RHL--
	clone := captured.Clone()
	clone.Basic.RHL--
	forkWire := fork.Marshal()
	cloneWire := clone.Marshal()
	if !bytes.Equal(forkWire, cloneWire) {
		t.Fatalf("fork and clone wire frames differ:\nfork:  %x\nclone: %x", forkWire, cloneWire)
	}
	// AppendMarshal into a dirty, pre-grown buffer must agree with Marshal.
	buf := make([]byte, 0, 512)
	buf = append(buf, 0xAA, 0xBB)
	if got := fork.AppendMarshal(buf)[2:]; !bytes.Equal(got, forkWire) {
		t.Fatalf("AppendMarshal diverges from Marshal")
	}
	// The fork still verifies (shared protected bytes untouched) and the
	// original is untouched by the fork's header mutation.
	if err := fork.Verify(verifier, 0); err != nil {
		t.Fatalf("forked packet no longer verifies: %v", err)
	}
	if captured.Basic.RHL != 16 {
		t.Fatalf("fork mutated the original basic header: RHL=%d", captured.Basic.RHL)
	}
	// Shared-bytes contract: the fork aliases the original's payload.
	if len(fork.Payload) > 0 && &fork.Payload[0] != &captured.Payload[0] {
		t.Fatal("Fork copied the payload; expected a shared slice")
	}
	if &clone.Payload[0] == &captured.Payload[0] {
		t.Fatal("Clone shares the payload; expected a deep copy")
	}
}

// TestProtectedWireRegionMatchesReencoding pins the invariant the cached
// verify path relies on: the protected region recorded at decode time is
// byte-identical to re-serializing the decoded packet.
func TestProtectedWireRegionMatchesReencoding(t *testing.T) {
	for _, build := range []func() *Packet{
		func() *Packet {
			return &Packet{Basic: BasicHeader{Version: 1, RHL: 1}, Type: TypeBeacon, SourcePV: samplePV()}
		},
		func() *Packet {
			return &Packet{Basic: BasicHeader{Version: 1, RHL: 9}, Type: TypeGeoUnicast, SN: 3,
				SourcePV: samplePV(), DestAddr: 7, DestPos: geo.Pt(4020, 2.5), Payload: []byte("x")}
		},
		func() *Packet {
			return &Packet{Basic: BasicHeader{Version: 1, RHL: 9}, Type: TypeGeoBroadcast, SN: 4,
				SourcePV: samplePV(), Area: geo.NewEllipse(geo.Pt(100, 50), 300, 60, 45), Payload: []byte("warning")}
		},
		func() *Packet {
			return &Packet{Basic: BasicHeader{Version: 1, RHL: 5}, Type: TypeGeoUnicast, SN: 5,
				SourcePV: samplePV(), DestAddr: 12}
		},
	} {
		p := build()
		ca := security.NewSimCA(1)
		p.Sign(ca.Enroll(security.StationID(p.SourcePV.Addr), 0))
		wire := p.Marshal()
		q, protEnd, err := unmarshalWire(wire, nil)
		if err != nil {
			t.Fatalf("%v: %v", p.Type, err)
		}
		if got, want := wire[basicHeaderLen:protEnd], q.protectedBytes(); !bytes.Equal(got, want) {
			t.Fatalf("%v: wire protected region != re-encoded protected bytes", p.Type)
		}
	}
}

func TestDecodeFrameSharesOneDecode(t *testing.T) {
	p, _, _ := signedGBC(t)
	f := radio.Frame{From: 42, To: radio.BroadcastID, Payload: p.Marshal(), Cache: &radio.FrameCache{}}
	first, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	second, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("receivers of one frame got distinct decodes")
	}
	// Without a cache every call decodes independently.
	f.Cache = nil
	third, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if third == first {
		t.Fatal("cache-less decode unexpectedly shared")
	}
}

func TestDecodeFrameCachesErrors(t *testing.T) {
	f := radio.Frame{Payload: []byte{protocolVersion, 1, 0, 0, 0}, Cache: &radio.FrameCache{}}
	if _, err := DecodeFrame(f); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if _, err := DecodeFrame(f); err == nil {
		t.Fatal("cached decode lost the error")
	}
}

// countingVerifier wraps a Verifier and counts underlying Verify calls.
type countingVerifier struct {
	v     security.Verifier
	calls int
}

func (c *countingVerifier) Verify(msg security.SignedMessage, now time.Duration) error {
	c.calls++
	return c.v.Verify(msg, now)
}

func TestVerifyFrameVerifiesOncePerTransmission(t *testing.T) {
	p, _, verifier := signedGBC(t)
	cv := &countingVerifier{v: verifier}
	f := radio.Frame{Payload: p.Marshal(), Cache: &radio.FrameCache{}}
	q, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := VerifyFrame(f, q, cv, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if cv.calls != 1 {
		t.Fatalf("10 receivers verified %d times, want 1", cv.calls)
	}
	// A different verifier instance must not reuse the verdict.
	cv2 := &countingVerifier{v: verifier}
	if err := VerifyFrame(f, q, cv2, time.Second); err != nil {
		t.Fatal(err)
	}
	if cv2.calls != 1 {
		t.Fatal("distinct verifier did not re-verify")
	}
	// A different verification time must re-verify too (cert expiry).
	if err := VerifyFrame(f, q, cv2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if cv2.calls != 2 {
		t.Fatal("later verification time did not re-verify")
	}
}

func TestVerifyFrameCachedRejectsTampering(t *testing.T) {
	// The cached verify runs over the wire bytes; a tampered protected
	// region must still be rejected for every receiver.
	p, _, verifier := signedGBC(t)
	wire := p.Marshal()
	wire[basicHeaderLen+3] ^= 0x01 // flip a bit inside the SN
	f := radio.Frame{Payload: wire, Cache: &radio.FrameCache{}}
	q, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := VerifyFrame(f, q, verifier, 0); err == nil {
			t.Fatal("tampered frame verified")
		}
	}
}

// TestReceivePathAllocs asserts the cached broadcast receive path —
// decode + verify per additional receiver — allocates nothing, so
// regressions fail CI (the PR's acceptance criterion).
func TestReceivePathAllocs(t *testing.T) {
	p, _, verifier := signedGBC(t)
	f := radio.Frame{Payload: p.Marshal(), Cache: &radio.FrameCache{}}
	q, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFrame(f, q, verifier, time.Second); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		qq, err := DecodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyFrame(f, qq, verifier, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached receive path allocates %.1f/op, want 0", allocs)
	}
}

// TestCBFArmCycleAllocs pins the pooled contention path: once the
// router's arm pool and the engine's event pool are warm, arming a
// contention and resolving it — by a duplicate's cancel, or by the timer
// firing into a broadcast — allocates nothing.
func TestCBFArmCycleAllocs(t *testing.T) {
	w := newWorld(t)
	r := w.addNode(1, geo.Pt(2000, 0), 500, nil)
	r.beaconTimer.Cancel() // only the contention runs on the engine
	p, _, _ := signedGBC(t)
	f := radio.Frame{From: 7, To: radio.BroadcastID}
	st := &pktState{}
	arm := func() {
		*st = pktState{}
		r.contend(p, f, st)
		if st.cbfArm == nil {
			t.Fatal("contention not armed")
		}
	}
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"duplicate-cancel", func() {
			arm()
			r.contend(p, f, st)
			if st.cbfArm != nil || st.cbfForwarded {
				t.Fatal("duplicate did not cancel the contention")
			}
		}},
		{"fire", func() {
			arm()
			w.engine.Run(w.engine.Now() + TOMax)
			if st.cbfArm != nil || !st.cbfForwarded {
				t.Fatal("contention did not fire")
			}
		}},
	} {
		c.cycle() // warm the pools
		if allocs := testing.AllocsPerRun(500, c.cycle); allocs != 0 {
			t.Errorf("%s cycle allocates %.2f/op, want 0", c.name, allocs)
		}
	}
	if r.CBFArmed() != 0 {
		t.Fatalf("CBFArmed = %d after every contention resolved", r.CBFArmed())
	}
}

// TestRouterSizeClass pins every Router allocation to the allocator's
// 512-byte size class. Objects up to 512 bytes carry no allocation
// header, so the struct may use all 512 bytes; one word more moves every
// router into the 576-byte class, which a 50,000-vehicle world pays in
// full. That is why the arm pool is an intrusive list rather than a
// slice.
func TestRouterSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Router{}); got > 512 {
		t.Fatalf("unsafe.Sizeof(Router{}) = %d, want <= 512 (the 512-byte class)", got)
	}
}

// TestPacketStateSizeClass pins pktState to the allocator's 48-byte size
// class: a CBF storm allocates one per packet per router, and the next
// class is 64 bytes.
func TestPacketStateSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(pktState{}); got > 48 {
		t.Fatalf("unsafe.Sizeof(pktState{}) = %d, want <= 48 (the 48-byte class)", got)
	}
}

// TestMarshalPathAllocs asserts AppendMarshal into a pre-grown buffer
// and the uncached verify's one-shot signing path stay within bounds.
func TestMarshalPathAllocs(t *testing.T) {
	p, _, _ := signedGBC(t)
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = p.AppendMarshal(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendMarshal allocates %.1f/op, want 0", allocs)
	}
	// One full decode per transmission: the packet with its inline tail
	// storage, the heap copy of a tail too long for it, and the area box.
	wire := p.Marshal()
	allocs = testing.AllocsPerRun(1000, func() {
		if _, err := Unmarshal(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("GBC Unmarshal allocates %.1f/op, want <= 3", allocs)
	}
	// A beacon's whole tail fits inline: decoding it is one allocation.
	signer, _ := testSigner(t, 42)
	beacon := &Packet{Basic: BasicHeader{Version: 1, RHL: 1}, Type: TypeBeacon, SourcePV: samplePV()}
	beacon.Sign(signer)
	wire = beacon.Marshal()
	allocs = testing.AllocsPerRun(1000, func() {
		if _, err := Unmarshal(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("beacon Unmarshal allocates %.1f/op, want exactly 1", allocs)
	}
}

// TestSignedMarshalMatchesSignThenMarshal pins the beacon's one-pass
// sign-into-the-wire-buffer path to the two-step Sign + AppendMarshal
// encoding, into both a roomy dirty buffer and one with no spare
// capacity (every append reallocates mid-signing).
func TestSignedMarshalMatchesSignThenMarshal(t *testing.T) {
	signer, verifier := testSigner(t, 42)
	for _, p := range []*Packet{
		{Basic: BasicHeader{Version: 1, RHL: 1, LifetimeMs: 3000}, Type: TypeBeacon, SourcePV: samplePV()},
		{Basic: BasicHeader{Version: 1, RHL: 9}, Type: TypeGeoBroadcast, SN: 3, SourcePV: samplePV(),
			Area: geo.NewCircle(geo.Pt(10, 20), 300), Payload: []byte("payload"),
			Ext: PacketExt{Mode: ExtModePerimeter, Lp: geo.Pt(1, 2), LfDist: 3, E0From: 4, E0To: 5}},
	} {
		ref := *p
		ref.Sign(signer)
		want := ref.Marshal()

		for _, dst := range [][]byte{append(make([]byte, 0, 512), 0xAA), {0xAA}} {
			got := *p
			out := got.appendSignedMarshal(dst, signer)
			if !bytes.Equal(out[1:], want) {
				t.Fatalf("%v: signed marshal diverges:\ngot:  %x\nwant: %x", p.Type, out[1:], want)
			}
			if !bytes.Equal(got.Signature, ref.Signature) || got.Cert.Station != ref.Cert.Station {
				t.Fatalf("%v: packet envelope fields not set from the signing pass", p.Type)
			}
			q, err := Unmarshal(out[1:])
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Verify(verifier, 0); err != nil {
				t.Fatalf("%v: signed-marshal frame does not verify: %v", p.Type, err)
			}
		}
	}
}

// TestUnmarshalOwnsItsBytes: the decoded packet must not alias the
// frame bytes (pooled buffers are reused for later frames), and its
// byte fields must be capacity-limited so appending to one cannot
// scribble over the next.
func TestUnmarshalOwnsItsBytes(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("short"), bytes.Repeat([]byte{7}, 300)} {
		p, signer, _ := signedGBC(t)
		p.Payload = payload
		p.Sign(signer)
		wire := p.Marshal()
		q, err := Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		sig := append([]byte(nil), q.Signature...)
		pk := append([]byte(nil), q.Cert.PublicKey...)
		for i := range wire {
			wire[i] ^= 0xFF
		}
		if !bytes.Equal(q.Payload, payload) || !bytes.Equal(q.Signature, sig) || !bytes.Equal(q.Cert.PublicKey, pk) {
			t.Fatal("decoded packet aliases the frame bytes")
		}
		if payload == nil && q.Payload != nil {
			t.Fatal("empty payload must decode as nil")
		}
		if len(q.Payload) > 0 {
			_ = append(q.Payload, 0xEE)
			if !bytes.Equal(q.Cert.PublicKey, pk) {
				t.Fatal("appending to the payload overwrote the envelope")
			}
		}
	}
}

// TestBeaconOriginationAllocs pins beacon origination on a warm medium:
// SendBeacon plus its delivery event allocates nothing, with or without
// receivers in range. The one decode every receiver shares goes into the
// pooled transmission's scratch packet, and each receiver already knows
// the sender, so its LocT entry is refreshed in place.
func TestBeaconOriginationAllocs(t *testing.T) {
	for _, receivers := range []int{0, 8, 32} {
		w := newWorld(t)
		tx := w.addNode(1, geo.Pt(0, 0), 500, nil)
		for i := 0; i < receivers; i++ {
			w.addNode(Address(10+i), geo.Pt(float64(10*(i+1)), 5), 500, nil)
		}
		// Silence the routers' own beacon schedules: only the measured
		// beacon is on the air.
		for _, r := range w.routers {
			r.beaconTimer.Cancel()
		}
		beacon := func() {
			tx.SendBeacon()
			w.engine.Run(w.engine.Now() + radio.Latency)
		}
		beacon() // receivers learn the sender; pools warm up
		if allocs := testing.AllocsPerRun(500, beacon); allocs != 0 {
			t.Errorf("%d receivers: beacon origination allocates %.2f/op, want 0", receivers, allocs)
		}
		for addr, r := range w.routers {
			if addr == 1 {
				continue
			}
			if got := r.Stats().BeaconsReceived; got != 502 {
				t.Fatalf("%d receivers: node %d received %d beacons, want 502", receivers, addr, got)
			}
		}
	}
}

// forkRecorder decodes every frame delivered to it and keeps what a
// forwarder keeps: a Fork of each data packet. Of a beacon it keeps only
// the pointer, to check that beacons share the transmission's scratch.
type forkRecorder struct {
	t       *testing.T
	forks   []*Packet
	beacons []*Packet
}

func (r *forkRecorder) Deliver(f radio.Frame) {
	p, err := DecodeFrame(f)
	if err != nil {
		r.t.Fatal(err)
	}
	if p.Type == TypeBeacon {
		r.beacons = append(r.beacons, p)
		return
	}
	r.forks = append(r.forks, p.Fork())
}

// TestBeaconScratchNeverAliasesDataPackets guards the one pooled decode:
// a GBC and a GUC go through a medium with a single pooled transmission,
// a receiver keeps a Fork of each, and then the same transmission carries
// several beacons from other stations. The forks' payload, certificate
// and signature bytes must not change, and the forks must still verify.
// Both data packets carry tails that fit the inline storage, so decoding
// them into the scratch packet too would fail here.
func TestBeaconScratchNeverAliasesDataPackets(t *testing.T) {
	engine := sim.NewEngine()
	m := radio.NewMedium(engine, radio.Config{})
	rec := &forkRecorder{t: t}
	tx := m.Attach(1, 500, func() geo.Point { return geo.Pt(0, 0) }, &forkRecorder{t: t}, false)
	m.Attach(2, 500, func() geo.Point { return geo.Pt(100, 0) }, rec, false)
	ca := security.NewSimCA(1)
	send := func(p *Packet) {
		m.SendPooled(tx, radio.BroadcastID, p.Marshal())
		engine.Run(engine.Now() + radio.Latency)
	}

	data := []*Packet{
		{Basic: BasicHeader{Version: 1, RHL: 9, LifetimeMs: 60000}, Type: TypeGeoBroadcast, SN: 3,
			SourcePV: samplePV(), Area: geo.NewCircle(geo.Pt(10, 20), 300), Payload: []byte("ab")},
		{Basic: BasicHeader{Version: 1, RHL: 9, LifetimeMs: 60000}, Type: TypeGeoUnicast, SN: 4,
			SourcePV: samplePV(), DestAddr: 7, DestPos: geo.Pt(4020, 0), Payload: []byte("c")},
	}
	var want [][]byte
	for _, p := range data {
		p.Sign(ca.Enroll(security.StationID(p.SourcePV.Addr), 0))
		wire := p.Marshal()
		_, protEnd, err := unmarshalWire(wire, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tail := len(wire) - protEnd + len(p.Payload); tail > inlineTail {
			t.Fatalf("%v tail is %d bytes, more than the %d inline: the guard could not see it pooled", p.Type, tail, inlineTail)
		}
		want = append(want, security.AppendEnvelope(append([]byte(nil), p.Payload...), p.Cert, p.Signature))
		send(p)
	}
	const beacons = 4
	for k := 0; k < beacons; k++ {
		pv := PositionVector{Addr: Address(50 + k), Timestamp: time.Duration(k+1) * time.Second, Pos: geo.Pt(float64(10*k), 0)}
		b := &Packet{Basic: BasicHeader{Version: 1, RHL: 1}, Type: TypeBeacon, SourcePV: pv}
		b.Sign(ca.Enroll(security.StationID(pv.Addr), 0))
		send(b)
		if got := rec.beacons[k].SourcePV; got != pv {
			t.Fatalf("beacon %d decoded as %+v, want %+v", k, got, pv)
		}
	}

	if ps := m.PoolStats(); ps.CacheMisses != 1 {
		t.Fatalf("%d transmissions allocated, want 1 reused for every frame", ps.CacheMisses)
	}
	for k := 1; k < beacons; k++ {
		if rec.beacons[k] != rec.beacons[0] {
			t.Fatalf("beacon %d decoded into fresh storage, want the transmission's scratch packet", k)
		}
	}
	if len(rec.forks) != len(data) {
		t.Fatalf("kept %d forks, want %d", len(rec.forks), len(data))
	}
	for i, q := range rec.forks {
		got := security.AppendEnvelope(append([]byte(nil), q.Payload...), q.Cert, q.Signature)
		if !bytes.Equal(got, want[i]) {
			t.Errorf("%v fork's payload, certificate or signature changed after beacon decodes", q.Type)
		}
		if err := q.Verify(ca, 0); err != nil {
			t.Errorf("%v fork no longer verifies after beacon decodes: %v", q.Type, err)
		}
	}
}
