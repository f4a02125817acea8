package experiment

import (
	"bytes"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/traffic"
	"github.com/vanetsec/georoute/internal/vanet"
)

// frameTap is a promiscuous sniffer that copies every distinct frame it
// hears, up to 64 of each packet type, so the beacons that fill the first
// second cannot crowd out the data frames. The copy is mandatory: frame
// payload buffers are pooled and recycled after the delivery walk.
type frameTap struct {
	seen    map[string]bool
	perType map[byte]int
	out     *[][]byte
}

func (t *frameTap) Deliver(f radio.Frame)  { t.add(f) }
func (t *frameTap) Overhear(f radio.Frame) { t.add(f) }

func (t *frameTap) add(f radio.Frame) {
	k := string(f.Payload)
	if len(k) <= typeByte || t.seen[k] || t.perType[k[typeByte]] >= 64 {
		return
	}
	t.seen[k] = true
	t.perType[k[typeByte]]++
	*t.out = append(*t.out, []byte(k))
}

// captureSeedFrames runs a short Fig. 7a-style world with a wide-open
// sniffer and returns the distinct wire frames it heard — real beacons
// and GUC/GBC traffic, all signed. These seed the fuzz corpus so mutation
// starts from every PDU shape the simulator emits rather than from
// synthetic frames.
func captureSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	s := fig7aScenario()
	w := vanet.New(vanet.Config{
		Seed:        42,
		Tech:        s.Tech,
		Road:        traffic.RoadConfig{Length: RoadLength, LanesPerDirection: LanesPerDirection, TwoWay: s.TwoWay},
		SpawnGap:    s.Spacing,
		Prepopulate: true,
	})
	w.AddStatic(vanet.WestDestAddr, geo.Pt(-20, 0), 0)
	w.AddStatic(vanet.EastDestAddr, geo.Pt(RoadLength+20, 0), 0)

	var frames [][]byte
	tap := &frameTap{seen: make(map[string]bool), perType: make(map[byte]int), out: &frames}
	ant := w.Medium.Attach(0x5EEDFEED, 0, func() geo.Point { return geo.Pt(RoadLength/2, 0) }, tap, true)
	ant.SetRxRange(RoadLength) // hear the whole road

	w.Engine.ScheduleAt(time.Second, "fuzz.traffic", func() {
		vs := w.AppendVehicles(nil)
		if len(vs) == 0 {
			return
		}
		r := w.RouterOf(vs[len(vs)/2])
		if r == nil {
			return
		}
		r.SendGeoUnicast(vanet.EastDestAddr, geo.Pt(RoadLength+20, 0), []byte("guc"))
		r.SendGeoBroadcast(geo.NewRect(geo.Pt(RoadLength/2, 0), RoadLength/2, 30, 90), []byte("gbc"))
	})
	w.Run(1500 * time.Millisecond)
	if len(frames) == 0 {
		tb.Fatal("seed capture heard no frames")
	}
	return frames
}

// typeByte is the offset of a frame's type byte: the first byte after
// the 6-byte basic header.
const typeByte = 6

// FuzzPacketWire fuzzes the GeoNetworking codec: any input that decodes
// must re-encode canonically — Marshal(Unmarshal(b)) decodes again and
// is a fixed point of the round trip. This pins the decode-once cache's
// core assumption that decoded packets and wire bytes are equivalent.
func FuzzPacketWire(f *testing.F) {
	var guc []byte
	for _, seed := range captureSeedFrames(f) {
		f.Add(seed)
		if guc == nil && seed[typeByte] == byte(geonet.TypeGeoUnicast) {
			guc = seed
		}
	}
	if guc == nil {
		f.Fatal("seed capture heard no GUC frame")
	}
	// A GUC with its type byte patched to each retired type (single-hop
	// broadcast, topologically-scoped broadcast, location-service request
	// and reply) must fail decode like any unknown type.
	for typ := byte(4); typ <= 7; typ++ {
		b := bytes.Clone(guc)
		b[typeByte] = typ
		if _, err := geonet.Unmarshal(b); err != geonet.ErrBadType {
			f.Fatalf("type %d: err = %v, want ErrBadType", typ, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := geonet.Unmarshal(b)
		if err != nil {
			return
		}
		wire := p.Marshal()
		q, err := geonet.Unmarshal(wire)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v\nwire: %x", err, wire)
		}
		if again := q.Marshal(); !bytes.Equal(wire, again) {
			t.Fatalf("marshal not idempotent:\nfirst:  %x\nsecond: %x", wire, again)
		}
		// The pooled path must agree with the allocating one for decoded
		// packets too, not just for locally constructed ones.
		if pooled := p.AppendMarshal(make([]byte, 0, len(wire))); !bytes.Equal(wire, pooled) {
			t.Fatalf("AppendMarshal diverges from Marshal on decoded packet")
		}
	})
}

// FuzzSecurityEnvelope fuzzes the security envelope codec with the same
// canonical round-trip property.
func FuzzSecurityEnvelope(f *testing.F) {
	ca := security.NewSimCA(3)
	signer := ca.Enroll(9, time.Minute)
	sig := signer.AppendSign(nil, []byte("protected bytes"))
	f.Add(security.AppendEnvelope(nil, signer.Certificate(), sig))
	for _, seed := range captureSeedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cert, sig, n, err := security.DecodeEnvelope(b)
		if err != nil {
			return
		}
		if re := security.AppendEnvelope(nil, cert, sig); !bytes.Equal(re, b[:n]) {
			t.Fatalf("envelope re-encoding diverges:\nin:  %x\nout: %x", b[:n], re)
		}
	})
}
