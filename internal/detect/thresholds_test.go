package detect

import (
	"testing"

	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/radio"
	"github.com/vanetsec/georoute/internal/traffic"
)

// TestThresholdsAdmitHonestNodes checks each plausibility threshold
// against the protocol, radio and mobility constants that bound honest
// behavior. A failure means the named check would flag honest traffic.
func TestThresholdsAdmitHonestNodes(t *testing.T) {
	// The shortest honest gap between two beacons of one source.
	minGap := geonet.BeaconInterval - geonet.BeaconJitter

	if MinBeaconGap >= minGap {
		t.Errorf("%v: MinBeaconGap %v is not below the honest beacon gap %v (BeaconInterval−BeaconJitter)",
			CheckBeacon, MinBeaconGap, minGap)
	}
	if n := int(ChurnWindow/minGap) + 1; n > ChurnMax {
		t.Errorf("%v: an honest source fits %d beacons into ChurnWindow %v, above ChurnMax %d",
			CheckChurn, n, ChurnWindow, ChurnMax)
	}
	if MinHopDelay > radio.Latency {
		t.Errorf("%v: MinHopDelay %v exceeds the radio's per-hop latency %v",
			CheckReplay, MinHopDelay, radio.Latency)
	}
	if RangeFactor < radio.SoftEdgeFactor {
		t.Errorf("%v: RangeFactor %v is below the soft-edge reception stretch %v",
			CheckPosition, RangeFactor, radio.SoftEdgeFactor)
	}
	if v0 := traffic.DefaultIDM().DesiredSpeed; MaxSpeed < v0 {
		t.Errorf("%v: MaxSpeed %v m/s is below the IDM desired velocity %v m/s",
			CheckPosition, MaxSpeed, v0)
	}
}
