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
// hears. The copy is mandatory: frame payload buffers are pooled and
// recycled after the delivery walk.
type frameTap struct {
	seen map[string]bool
	out  *[][]byte
}

func (t *frameTap) Deliver(f radio.Frame)  { t.add(f) }
func (t *frameTap) Overhear(f radio.Frame) { t.add(f) }

func (t *frameTap) add(f radio.Frame) {
	if len(*t.out) >= 64 {
		return
	}
	k := string(f.Payload)
	if t.seen[k] {
		return
	}
	t.seen[k] = true
	*t.out = append(*t.out, []byte(k))
}

// captureSeedFrames runs a short Fig. 7a-style world with a wide-open
// sniffer and returns the distinct wire frames it heard — real beacons,
// GUC/GBC/TSB/SHB traffic, and LS requests, all signed. These seed the
// fuzz corpus so mutation starts from every PDU shape the simulator
// emits rather than from synthetic frames.
func captureSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	s := fig7aScenario()
	w := vanet.New(vanet.Config{
		Seed:        42,
		Tech:        s.Tech,
		RangeClass:  s.VehicleRangeClass,
		Road:        traffic.RoadConfig{Length: s.RoadLength, LanesPerDirection: s.LanesPerDirection, TwoWay: s.TwoWay},
		SpawnGap:    s.Spacing,
		Prepopulate: true,
	})
	w.AddStatic(vanet.WestDestAddr, geo.Pt(-20, 0), 0)
	w.AddStatic(vanet.EastDestAddr, geo.Pt(s.RoadLength+20, 0), 0)

	var frames [][]byte
	tap := &frameTap{seen: make(map[string]bool), out: &frames}
	ant := w.Medium.Attach(0x5EEDFEED, 0, func() geo.Point { return geo.Pt(s.RoadLength/2, 0) }, tap, true)
	ant.SetRxRange(s.RoadLength) // hear the whole road

	w.Engine.ScheduleAt(time.Second, "fuzz.traffic", func() {
		vs := w.AppendVehicles(nil)
		if len(vs) == 0 {
			return
		}
		r := w.RouterOf(vs[len(vs)/2])
		if r == nil {
			return
		}
		r.SendGeoUnicast(vanet.EastDestAddr, geo.Pt(s.RoadLength+20, 0), []byte("guc"))
		r.SendGeoBroadcast(geo.NewRect(geo.Pt(s.RoadLength/2, 0), s.RoadLength/2, 30, 90), []byte("gbc"))
		r.SendTSB([]byte("tsb"), 3)
		r.SendSHB([]byte("shb"))
		// Unknown destination forces a location-service request frame.
		r.SendGeoUnicastAuto(9999, []byte("ls"))
	})
	w.Run(1500 * time.Millisecond)
	if len(frames) == 0 {
		tb.Fatal("seed capture heard no frames")
	}
	return frames
}

// FuzzPacketWire fuzzes the GeoNetworking codec: any input that decodes
// must re-encode canonically — Marshal(Unmarshal(b)) decodes again and
// is a fixed point of the round trip. This pins the decode-once cache's
// core assumption that decoded packets and wire bytes are equivalent.
func FuzzPacketWire(f *testing.F) {
	for _, seed := range captureSeedFrames(f) {
		f.Add(seed)
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
