package experiment

import (
	"fmt"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/trace"
)

// analyzeRun executes one traced run and returns the reconstructed
// lifecycle analysis of every packet it produced.
func analyzeRun(s Scenario, seed uint64) *trace.Analysis {
	mem := &trace.MemorySink{}
	RunOnceObserved(s, seed, Observe{Tracer: trace.New(mem)})
	return trace.Analyze(mem.Records)
}

// checkConservation fails t on an empty trace or any unbalanced chain.
func checkConservation(t *testing.T, an *trace.Analysis) {
	t.Helper()
	if an.Records == 0 || len(an.Chains) == 0 {
		t.Fatalf("empty trace: %d records, %d chains", an.Records, len(an.Chains))
	}
	if v := an.Violations(); len(v) > 0 {
		t.Errorf("%d conservation violations:\n", len(v))
		for _, s := range v {
			t.Errorf("  %s", s)
		}
	}
}

// extraStrategies lists every registered forwarder besides the default,
// which the seed sweeps above already cover.
func extraStrategies() []string {
	var names []string
	for _, name := range geonet.StrategyNames() {
		if name != geonet.DefaultForwarder {
			names = append(names, name)
		}
	}
	return names
}

// TestFig7aConservationAllSeeds runs the Fig. 7a baseline/attack pair for
// several seeds and asserts the conservation invariant on each: every
// copy of every injected packet is accounted for as delivered, forwarded,
// dropped with a reason, lost in the medium, or still held at the end.
// Every other registered forwarder runs the pair for one seed.
func TestFig7aConservationAllSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	s := fig7aScenario()
	s.Duration = 20 * time.Second
	s.Drain = 10 * time.Second
	arms := []struct {
		label string
		s     Scenario
	}{
		{"free", s.withoutAttack()},
		{"attacked", s},
	}
	for _, arm := range arms {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", arm.label, seed), func(t *testing.T) {
				checkConservation(t, analyzeRun(arm.s, seed))
			})
		}
		for _, name := range extraStrategies() {
			s := arm.s
			s.Forwarder = name
			t.Run(fmt.Sprintf("%s/%s/seed1", name, arm.label), func(t *testing.T) {
				checkConservation(t, analyzeRun(s, 1))
			})
		}
	}
}

// TestIntraAreaConservation covers the broadcast/CBF path: GBC chains with
// contention arming, cancellation, and refloods must balance too, both
// attack-free and under the intra-area replay attack, for every
// registered forwarder.
func TestIntraAreaConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	s := Default()
	s.Workload = IntraArea
	s.Duration = 10 * time.Second
	s.Drain = 5 * time.Second
	for _, arm := range []struct {
		label string
		s     Scenario
	}{
		{"free", s},
		{"attacked", s.withAttack(attack.IntraArea)},
	} {
		t.Run(arm.label, func(t *testing.T) {
			checkConservation(t, analyzeRun(arm.s, 1))
		})
		for _, name := range extraStrategies() {
			s := arm.s
			s.Forwarder = name
			t.Run(name+"/"+arm.label, func(t *testing.T) {
				checkConservation(t, analyzeRun(s, 1))
			})
		}
	}
}

// TestFig7aGoldenBitIdenticalTraced re-runs the golden Fig. 7a seed with
// the tracer attached and asserts the BinSeries is bit-identical to the
// untraced baseline: observation must not perturb the simulation. The
// same records must also satisfy conservation at full scale.
func TestFig7aGoldenBitIdenticalTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	mem := &trace.MemorySink{}
	got := serializeResult(RunOnceObserved(fig7aScenario(), 42, Observe{Tracer: trace.New(mem)}))
	if got != fig7aGolden {
		t.Errorf("traced Fig. 7a diverged from the untraced golden:\ngot:\n%s\nwant:\n%s", got, fig7aGolden)
	}
	an := trace.Analyze(mem.Records)
	if v := an.Violations(); len(v) > 0 {
		t.Errorf("%d conservation violations at benchmark scale:", len(v))
		for _, s := range v {
			t.Errorf("  %s", s)
		}
	}
}
