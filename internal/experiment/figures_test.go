package experiment

import (
	"strings"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/radio"
)

func TestFigureRegistryComplete(t *testing.T) {
	want := []string{
		"fig7a", "fig7b", "fig7c", "fig7d", "fig7e",
		"fig8",
		"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9-range-sweep",
		"fig10",
		"fig14a", "fig14b",
		"ablation-neighbor-ttl", "ablation-soft-edge", "ablation-attacker-delay",
		"tournament", "tournament-localmin",
	}
	figs := Figures()
	for _, id := range want {
		if _, ok := figs[id]; !ok {
			t.Errorf("missing figure %s", id)
		}
	}
	if len(figs) != len(want) {
		t.Errorf("registry has %d figures, want %d", len(figs), len(want))
	}
}

func TestFigureArmsAndPairsConsistent(t *testing.T) {
	for id, fig := range Figures() {
		if fig.ID != id {
			t.Errorf("%s: ID mismatch %q", id, fig.ID)
		}
		if fig.Title == "" {
			t.Errorf("%s: empty title", id)
		}
		labels := make(map[string]bool)
		for _, a := range fig.Arms {
			if labels[a.Label] {
				t.Errorf("%s: duplicate arm label %q", id, a.Label)
			}
			labels[a.Label] = true
			if a.Scenario.Duration == 0 || a.Scenario.Spacing == 0 {
				t.Errorf("%s/%s: scenario not initialized from Default()", id, a.Label)
			}
			if a.Scenario.AttackMode != attack.None && a.Scenario.AttackRange == 0 {
				t.Errorf("%s/%s: attacked arm without attack range", id, a.Label)
			}
		}
		for _, p := range fig.Pairs {
			if !labels[p.Free] || !labels[p.Attacked] {
				t.Errorf("%s: pair %q references unknown arms (%q, %q)", id, p.Label, p.Free, p.Attacked)
			}
		}
		// The local-minimum tournament has no attacked arms, hence no
		// A/B pairs; every other figure must pair its arms.
		if len(fig.Pairs) == 0 && id != "tournament-localmin" {
			t.Errorf("%s: no pairs", id)
		}
	}
}

func TestFigureWorkloadsMatchFamily(t *testing.T) {
	for id, fig := range Figures() {
		for _, a := range fig.Arms {
			switch {
			case strings.HasPrefix(id, "fig7"), id == "fig8", id == "fig14a":
				if a.Scenario.Workload != InterArea {
					t.Errorf("%s/%s: workload = %v, want inter-area", id, a.Label, a.Scenario.Workload)
				}
			case strings.HasPrefix(id, "fig9"), id == "fig10", id == "fig14b":
				if a.Scenario.Workload != IntraArea {
					t.Errorf("%s/%s: workload = %v, want intra-area", id, a.Label, a.Scenario.Workload)
				}
			}
		}
	}
}

func TestFigurePaperDropsRecorded(t *testing.T) {
	// The headline numbers the paper reports must be present for the
	// paper-vs-measured comparison.
	checks := map[string]map[string]float64{
		"fig7a": {"wN": 0.468, "mN": 0.999, "mL": 0.999},
		"fig7b": {"wN": 0.352},
		"fig9a": {"mN": 0.385},
		"fig9b": {"mN": 0.358},
	}
	figs := Figures()
	for id, wantPairs := range checks {
		fig := figs[id]
		for label, want := range wantPairs {
			found := false
			for _, p := range fig.Pairs {
				if p.Label == label {
					found = true
					if p.PaperDrop != want {
						t.Errorf("%s/%s: paper drop %v, want %v", id, label, p.PaperDrop, want)
					}
				}
			}
			if !found {
				t.Errorf("%s: pair %q missing", id, label)
			}
		}
	}
}

func TestFigureRunSmall(t *testing.T) {
	// End-to-end check of the figure runner on a scaled-down custom
	// figure: series lengths, drops and accumulated drops all populated.
	s := Default()
	s.Duration = 30 * time.Second
	s.Drain = 10 * time.Second
	s.AttackMode = attack.InterArea
	s.AttackRange = radio.Range(radio.DSRC, radio.LoSMedian)
	fig := Figure{
		ID:    "test",
		Title: "scaled",
		Arms: []Arm{
			{Label: "af", Scenario: s.withoutAttack()},
			{Label: "atk", Scenario: s},
		},
		Pairs: []Pair{{Label: "p", Free: "af", Attacked: "atk", PaperDrop: 0.99}},
	}
	res, err := fig.Run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rates["af"]) != 6 || len(res.Rates["atk"]) != 6 {
		t.Fatalf("rates have %d/%d bins, want 6", len(res.Rates["af"]), len(res.Rates["atk"]))
	}
	if res.Overall["af"] <= res.Overall["atk"] {
		t.Fatalf("af %.2f should exceed atk %.2f under an mL attacker",
			res.Overall["af"], res.Overall["atk"])
	}
	if d := res.Drops["p"]; d < 0.8 {
		t.Fatalf("mL drop = %v, want near-total interception", d)
	}
	if len(res.AccumDrops["p"]) != 6 {
		t.Fatalf("accumulated drops missing")
	}
}

func TestScenarioVulnerablePredicate(t *testing.T) {
	s := Default() // attacker mid-road (2000), wN range 327, vehicles 486
	// margin = 327-486 = -159: eastbound vulnerable iff src <= 1841.
	east, west := s.VulnerableBounds()
	if !(1800 <= east) {
		t.Error("src 1800 must be east-vulnerable")
	}
	if 1900 <= east {
		t.Error("src 1900 must not be east-vulnerable")
	}
	if !(2200 >= west) {
		t.Error("src 2200 must be west-vulnerable")
	}
	if 2100 >= west {
		t.Error("src 2100 must not be west-vulnerable")
	}
	// A long-range attacker widens the window symmetrically.
	s.AttackRange = radio.Range(radio.DSRC, radio.LoSMedian) // 1283, margin +797
	if east, west := s.VulnerableBounds(); !(2700 <= east) || !(1300 >= west) {
		t.Error("mL attacker must widen the vulnerable window")
	}
}

func TestScenarioAttackerPosition(t *testing.T) {
	s := Default()
	x, y := s.AttackerPosition()
	if x != 2000 || y != -2.5 {
		t.Fatalf("default attacker position = (%v, %v), want road midpoint shoulder", x, y)
	}
}

func TestRunABPairsPopulations(t *testing.T) {
	// The af and atk arms must sample identical packet populations: same
	// number of packets generated per run pair.
	s := Default()
	s.Duration = 20 * time.Second
	s.Drain = 5 * time.Second
	s.AttackMode = attack.InterArea
	free := RunOnce(s.withoutAttack(), 7)
	atk := RunOnce(s, 7)
	if free.PacketsSent != atk.PacketsSent {
		t.Fatalf("arm populations differ: %d vs %d", free.PacketsSent, atk.PacketsSent)
	}
	if free.AttackerStats.BeaconsReplayed != 0 {
		t.Fatal("attack-free arm has attacker activity")
	}
	if atk.AttackerStats.BeaconsReplayed == 0 {
		t.Fatal("attacked arm shows no attacker activity")
	}
}

func TestRunArmDeterministic(t *testing.T) {
	s := Default()
	s.Duration = 15 * time.Second
	s.Drain = 5 * time.Second
	a := RunArm(s, 2)
	b := RunArm(s, 2)
	if a.PacketsSent != b.PacketsSent {
		t.Fatalf("packet counts differ: %d vs %d", a.PacketsSent, b.PacketsSent)
	}
	for i := 0; i < a.Series.Bins(); i++ {
		ra, oka := a.Series.Rate(i)
		rb, okb := b.Series.Rate(i)
		if oka != okb || ra != rb {
			t.Fatalf("series diverge at bin %d: %v/%v vs %v/%v", i, ra, oka, rb, okb)
		}
	}
}
