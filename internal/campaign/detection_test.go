package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCampaignDetectionArtifact runs a fig7a campaign with the
// plausibility monitors armed and pins the PR's acceptance criteria:
// detection.json reports full recall on the attack arms and a zero
// false-alarm budget on the benign arms, while every other artifact stays
// byte-identical to a detection-off run of the same spec.
func TestCampaignDetectionArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real fig7a cells")
	}
	t.Parallel()
	base := t.TempDir()
	if _, err := Run(context.Background(), fig7aSpec("camp", 1), Options{ResultsDir: base, Detect: true}); err != nil {
		t.Fatal(err)
	}
	off := plainArtifacts(t) // the detection-off run

	onDir := filepath.Join(base, "camp")
	raw, err := os.ReadFile(filepath.Join(onDir, "detection.json"))
	if err != nil {
		t.Fatalf("detection.json not written: %v", err)
	}
	var art DetectionArtifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	arms, ok := art.Figures["fig7a"]
	if !ok {
		t.Fatalf("detection.json missing fig7a: %+v", art)
	}
	for label, s := range arms {
		attacked := strings.HasPrefix(label, "atk")
		switch {
		case attacked && s.Recall < 0.9:
			t.Errorf("arm %s: recall %v < 0.9 (%+v)", label, s.Recall, s)
		case attacked && s.MeanLatencySeconds <= 0:
			t.Errorf("arm %s: detected without latency (%+v)", label, s)
		case !attacked && (s.Verdicts != 0 || s.FalseAlarmRate != 0):
			t.Errorf("arm %s: benign arm raised %d verdicts (%+v)", label, s.Verdicts, s)
		}
	}

	// detection.json is not part of the figure index, and the detection-off
	// run must not have produced one.
	var sum Summary
	raw, err = os.ReadFile(filepath.Join(onDir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	for _, f := range sum.Figures {
		if f == "detection" {
			t.Error("summary.json lists detection in its figure index")
		}
	}
	if _, ok := off["detection.json"]; ok {
		t.Error("detection-off run wrote detection.json")
	}

	// Byte-identity of everything else.
	on := readArtifacts(t, onDir)
	delete(on, "detection.json")
	if len(on) != len(off) {
		t.Fatalf("artifact sets differ: on=%v off=%v", keys(on), keys(off))
	}
	for name, want := range off {
		if on[name] != want {
			t.Errorf("artifact %s differs with detection enabled", name)
		}
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
