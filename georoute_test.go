package georoute_test

import (
	"strings"
	"testing"
	"time"

	"github.com/vanetsec/georoute"
	"github.com/vanetsec/georoute/internal/experiment"
)

// These tests exercise the public facade end to end at reduced scale. The
// deeper behavioral coverage lives in the internal packages.

func quick() georoute.Scenario {
	s := georoute.DefaultScenario()
	s.Duration = 30 * time.Second
	s.Drain = 10 * time.Second
	return s
}

func TestPublicDefaultsMatchPaper(t *testing.T) {
	s := georoute.DefaultScenario()
	if experiment.RoadLength != 4000 || experiment.LanesPerDirection != 2 || s.Spacing != 30 {
		t.Fatalf("road off: %v m, %d lanes each way, %+v", experiment.RoadLength, experiment.LanesPerDirection, s)
	}
	if experiment.VehicleRangeClass != georoute.NLoSMedian {
		t.Fatalf("vehicle range class = %v, want the NLoS median", experiment.VehicleRangeClass)
	}
	if x, y := s.AttackerPosition(); x != 2000 || y != -2.5 {
		t.Fatalf("attacker at (%v, %v), want the road midpoint's shoulder", x, y)
	}
	if s.LocTTTL != 20*time.Second || s.Duration != 200*time.Second {
		t.Fatalf("protocol defaults off: %+v", s)
	}
	if s.VehicleRange() != 486 {
		t.Fatalf("default V2V range = %v, want DSRC NLoS median 486", s.VehicleRange())
	}
	if georoute.Range(georoute.CV2X, georoute.LoSMedian) != 1703 {
		t.Fatal("Table II mismatch through the facade")
	}
}

func TestPublicInterceptionEndToEnd(t *testing.T) {
	s := quick()
	s.AttackMode = georoute.AttackInterArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.LoSMedian)
	ab := georoute.RunAB(s, 1)
	if g := ab.DropRate(); g < 0.8 {
		t.Fatalf("mL interception through facade = %.2f, want near-total", g)
	}
}

func TestPublicMitigationEndToEnd(t *testing.T) {
	s := quick()
	s.AttackMode = georoute.AttackInterArea
	s.AttackRange = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	attacked := georoute.RunArm(s, 1)
	s.PlausibilityThreshold = georoute.Range(georoute.DSRC, georoute.NLoSMedian)
	defended := georoute.RunArm(s, 1)
	if defended.Series.Overall() <= attacked.Series.Overall() {
		t.Fatalf("plausibility check restored nothing: %.2f vs %.2f",
			defended.Series.Overall(), attacked.Series.Overall())
	}
}

func TestPublicFigureRegistry(t *testing.T) {
	ids := georoute.FigureIDs()
	if len(ids) < 15 {
		t.Fatalf("only %d figures registered", len(ids))
	}
	figs := georoute.Figures()
	for _, id := range ids {
		if figs[id].Title == "" {
			t.Errorf("figure %s has no title", id)
		}
	}
}

func TestPublicRenderers(t *testing.T) {
	out := georoute.RenderTable(5*time.Second, map[string][]float64{"af": {1, 0.5}})
	if !strings.Contains(out, "af") {
		t.Fatalf("table output: %q", out)
	}
	csv := georoute.RenderCSV(5*time.Second, map[string][]float64{"af": {1}})
	if !strings.HasPrefix(csv, "t_seconds,af") {
		t.Fatalf("csv output: %q", csv)
	}
}

func TestPublicShowcases(t *testing.T) {
	res := georoute.RunCurve(georoute.CurveConfig{Seed: 1, Attacked: true})
	if !res.Collision {
		t.Fatal("curve showcase through facade lost its collision")
	}
	hz := georoute.RunHazard(georoute.HazardConfig{
		Case: georoute.CaseCBF, Seed: 2, Duration: 60 * time.Second,
	})
	if hz.GateClosedAt == 0 {
		t.Fatal("hazard showcase: entrance never warned attack-free")
	}
}
