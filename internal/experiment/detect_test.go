package experiment

import (
	"reflect"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/telemetry"
	"github.com/vanetsec/georoute/internal/trace"
)

// TestFig7aGoldenWithDetection is the acceptance check of the detection
// PR: the Fig. 7a golden BinSeries must be reproduced bit-for-bit while
// the plausibility monitors watch every receive path — detection is a
// pure observer, never a mitigation.
func TestFig7aGoldenWithDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	res := RunOnceObserved(fig7aScenario(), 42, Observe{
		Detect: true,
		Gauges: telemetry.NewRunGauges(telemetry.NewRegistry(), 0),
	})
	if got := serializeResult(res); got != fig7aGolden {
		t.Errorf("Fig. 7a output diverged under detection:\ngot:\n%s\nwant:\n%s", got, fig7aGolden)
	}
	if res.Detection == nil || !res.Detection.Detected {
		t.Fatalf("hijack arm not detected: %+v", res.Detection)
	}
	if res.Detection.LatencySeconds <= 0 {
		t.Errorf("detection latency = %v, want > 0", res.Detection.LatencySeconds)
	}
}

// TestDetectionOffLeavesResultUntouched: the Detect switch itself (not
// just a nil monitor) must not perturb the run, and a detection-off run
// carries no Detection summary.
func TestDetectionOffLeavesResultUntouched(t *testing.T) {
	s := tinyScenario()
	plain := RunOnce(s, 7)
	detected := RunOnceObserved(s, 7, Observe{Detect: true})
	if got, want := serializeResult(detected), serializeResult(plain); got != want {
		t.Errorf("detection perturbed the run:\nwith:\n%s\nwithout:\n%s", got, want)
	}
	if plain.Detection != nil {
		t.Error("detection-off run has a Detection summary")
	}
	if detected.Detection == nil {
		t.Error("detection-on run lost its Detection summary")
	}
}

// TestDetectionBenignZeroFalsePositives is the zero-FP budget: across
// every attack-free arm of Fig. 7a and Fig. 9a, over several seeds, the
// default thresholds must produce not a single verdict.
func TestDetectionBenignZeroFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	for _, name := range []string{"fig7a", "fig9a"} {
		fig := Figures()[name]
		for _, arm := range fig.Arms {
			if arm.Scenario.AttackMode != 0 {
				continue
			}
			seeds := []uint64{arm.Scenario.Seed, arm.Scenario.Seed + 1}
			if name == "fig9a" {
				seeds = seeds[:1] // fig9a runs are the slow ones
			}
			for _, seed := range seeds {
				res := RunOnceObserved(arm.Scenario, seed, Observe{Detect: true})
				if s := res.Detection; s.Verdicts != 0 || s.Detected {
					t.Errorf("%s/%s seed %d: benign arm raised %d verdicts (checks %v)",
						name, arm.Label, seed, s.Verdicts, s.Checks)
				}
			}
		}
	}
}

// TestDetectionAttackArmsDetected: every attack arm of both figures must
// be detected at default thresholds, and every check except the
// churn monitor (whose suspect attribution is inherently ambiguous when
// direct and replayed copies interleave) must have perfect precision.
func TestDetectionAttackArmsDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	for _, name := range []string{"fig7a", "fig9a"} {
		fig := Figures()[name]
		for _, arm := range fig.Arms {
			if arm.Scenario.AttackMode == 0 {
				continue
			}
			res := RunOnceObserved(arm.Scenario, arm.Scenario.Seed, Observe{Detect: true})
			s := res.Detection
			if !s.Detected {
				t.Errorf("%s/%s: attack arm not detected", name, arm.Label)
				continue
			}
			if s.LatencySeconds <= 0 {
				t.Errorf("%s/%s: detected but latency %v", name, arm.Label, s.LatencySeconds)
			}
			for check, cs := range s.Checks {
				if check == detect.CheckChurn.String() {
					continue
				}
				if cs.FalsePositives != 0 {
					t.Errorf("%s/%s: check %s blamed honest nodes %d times",
						name, arm.Label, check, cs.FalsePositives)
				}
			}
		}
	}
}

// TestOfflineDetectionMatchesOnline: detection over a recorded trace
// agrees with detection during the run wherever the trace carries the
// evidence. Replaying the run's in-memory records reproduces the online
// summary exactly; replaying them after a JSONL round trip, which drops
// the position claims, reproduces the beacon inter-arrival and churn
// tallies.
func TestOfflineDetectionMatchesOnline(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs")
	}
	fig := Figures()["fig7a"]
	for _, label := range []string{"atk_wN", "af_wN"} {
		t.Run(label, func(t *testing.T) {
			s, ok := fig.Arm(label)
			if !ok {
				t.Fatalf("fig7a has no arm %s", label)
			}
			s.Duration, s.Drain = 20*time.Second, 5*time.Second
			mem := &trace.MemorySink{}
			online := RunOnceObserved(s, s.Seed, Observe{Tracer: trace.New(mem), Detect: true}).Detection

			var cfg detect.Config
			if s.AttackMode != attack.None {
				cfg.Truth = func(suspect uint64) bool { return suspect == uint64(attack.DefaultPseudonym) }
			}
			if got := detect.Replay(mem.Records, cfg).Summary(); !reflect.DeepEqual(got, online) {
				t.Errorf("replay of the in-memory records = %+v, online = %+v", got, online)
			}

			decoded := make([]trace.Record, len(mem.Records))
			var line []byte
			for i, r := range mem.Records {
				line = trace.AppendJSON(line[:0], r)
				rec, err := trace.DecodeRecord(line)
				if err != nil {
					t.Fatal(err)
				}
				decoded[i] = rec
			}
			offline := detect.Replay(decoded, cfg).Summary()
			for _, c := range []detect.Check{detect.CheckBeacon, detect.CheckChurn} {
				on, off := online.Checks[c.String()], offline.Checks[c.String()]
				if on != off {
					t.Errorf("%s: online %+v, offline %+v", c, on, off)
				}
				if s.AttackMode != attack.None && on.TruePositives == 0 {
					t.Errorf("%s: attack arm raised no true verdicts", c)
				}
			}
		})
	}
}
