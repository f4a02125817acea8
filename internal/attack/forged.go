package attack

import (
	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/security"
	"github.com/vanetsec/georoute/internal/sim"
)

// ForgedBeaconAttacker is the classic false-position/blackhole-style
// adversary the paper contrasts with (§III-B, [14]): it FORGES beacons
// claiming an attractive position near the destination, signed with its
// own key material. Against GeoNetworking's mandatory authentication this
// attack fails — receivers reject the beacons — which is exactly why the
// paper's replay attacks matter: they achieve the blackhole effect with
// authentic, unmodifiable beacons.
//
// It exists as a negative control: experiments and tests use it to show
// that the security layer does its job and that the replay attacks are
// not an artifact of missing authentication.
type ForgedBeaconAttacker struct {
	engine  *sim.Engine
	medium  *radio.Medium
	antenna *radio.Antenna
	signer  security.Signer
	addr    geonet.Address
	claim   geo.Point
}

// ForgedBeaconConfig parameterizes NewForgedBeaconAttacker.
type ForgedBeaconConfig struct {
	Engine *sim.Engine
	Medium *radio.Medium
	// Pseudonym is the link-layer and claimed GeoNetworking identity.
	Pseudonym radio.NodeID
	// Position is the transmitter's real location.
	Position geo.Point
	// Claim is the fake position advertised in the forged beacons —
	// typically near the victims' destination to attract traffic.
	Claim geo.Point
	// Range is the transmit range.
	Range float64
	// Signer signs the forgeries. The attacker holds no enrolment with
	// the victims' CA, so this is a key of its own (e.g. from a rogue
	// CA); pass nil to use a fresh self-made one.
	Signer security.Signer
}

// NewForgedBeaconAttacker deploys the forger; it beacons every
// geonet.BeaconInterval for the rest of the run.
func NewForgedBeaconAttacker(cfg ForgedBeaconConfig) *ForgedBeaconAttacker {
	if cfg.Engine == nil || cfg.Medium == nil {
		panic("attack: Engine and Medium are required")
	}
	if cfg.Pseudonym == 0 {
		cfg.Pseudonym = 0xF0A6EDB7
	}
	if cfg.Signer == nil {
		rogue := security.NewSimCA(0xBAD5EED)
		cfg.Signer = rogue.Enroll(security.StationID(cfg.Pseudonym), 0)
	}
	a := &ForgedBeaconAttacker{
		engine: cfg.Engine,
		medium: cfg.Medium,
		signer: cfg.Signer,
		addr:   geonet.Address(cfg.Pseudonym),
		claim:  cfg.Claim,
	}
	pos := cfg.Position
	a.antenna = cfg.Medium.Attach(cfg.Pseudonym, cfg.Range, func() geo.Point { return pos }, noopReceiver{}, false)
	cfg.Engine.Every(0, geonet.BeaconInterval, "attack.forgedBeacon", a.beacon)
	return a
}

func (a *ForgedBeaconAttacker) beacon() {
	p := &geonet.Packet{
		Basic: geonet.BasicHeader{Version: 1, RHL: 1},
		Type:  geonet.TypeBeacon,
		SourcePV: geonet.PositionVector{
			Addr:      a.addr,
			Timestamp: a.engine.Now(),
			Pos:       a.claim, // the lie
		},
	}
	p.Sign(a.signer)
	a.medium.SendPooled(a.antenna, radio.BroadcastID, p.Marshal())
}

// noopReceiver discards incoming frames; the forger only transmits.
type noopReceiver struct{}

func (noopReceiver) Deliver(radio.Frame) {}
