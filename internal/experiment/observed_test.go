package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/trace"
)

// Digests of one observed fig7a/atk_wN seed-1 cell cut to 20 s,
// recorded before the observers moved off the simulation goroutine:
// the JSONL stream, the counter rollup and the detection summary. A
// record lost, duplicated or delivered out of order changes at least
// one of them.
const (
	observedJSONLDigest     = "77da673af02fd517a3d92c5cc0d4cb96b9f27b929cd8c97799f0da8328fbdda5"
	observedCountersDigest  = "ed527b5d7668b60fc39b26f23bb0acf5ad8024862348d78981e76731ed9c8ff7"
	observedDetectionDigest = "25b2fe6953cb60fb40878a757c2097a988eb0985bce673b375f5674cfd6119e7"
)

// TestObservedRunByteIdentity runs one short observed cell through every
// observer a campaign cell gets (a JSONL writer, trace counters and the
// detection monitors) and pins each observer's output by digest, with
// the observers on the simulation goroutine (one core) and behind a
// pipe (two cores).
func TestObservedRunByteIdentity(t *testing.T) {
	s, ok := Figures()["fig7a"].Arm("atk_wN")
	if !ok {
		t.Fatal("fig7a has no atk_wN arm")
	}
	s.Duration = 20 * time.Second
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name  string
		procs int
	}{{"unpiped", 1}, {"piped", 2}} {
		t.Run(c.name, func(t *testing.T) {
			runtime.GOMAXPROCS(c.procs)
			checkObservedDigests(t, s)
		})
	}
}

func checkObservedDigests(t *testing.T, s Scenario) {
	stream := sha256.New()
	jsonl := trace.NewJSONLWriter(stream)
	counters := trace.NewCounters()
	res := RunOnceObserved(s, 1, Observe{Tracer: trace.New(jsonl, counters), Detect: true})
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	rollup, err := json.Marshal(counters.Rollup())
	if err != nil {
		t.Fatal(err)
	}
	detection, err := json.Marshal(res.Detection)
	if err != nil {
		t.Fatal(err)
	}
	rollupSum := sha256.Sum256(rollup)
	detectionSum := sha256.Sum256(detection)
	for _, c := range []struct {
		name      string
		sum, want string
	}{
		{"JSONL", hex.EncodeToString(stream.Sum(nil)), observedJSONLDigest},
		{"counter rollup", hex.EncodeToString(rollupSum[:]), observedCountersDigest},
		{"detection summary", hex.EncodeToString(detectionSum[:]), observedDetectionDigest},
	} {
		if c.sum != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, c.sum, c.want)
		}
	}
	if !res.Detection.Detected {
		t.Errorf("attack arm not detected: %+v", res.Detection)
	}
}

// TestPipeObserversNeedsIdleCore checks when a run pipes its observers:
// only if GOMAXPROCS leaves a core beside the simulations expected to run
// and the pipes already running.
func TestPipeObserversNeedsIdleCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if p, _ := pipeObservers(nil); p != nil {
		t.Error("nil tracer piped")
	}
	tr := trace.New(trace.NewCounters())
	running.Add(1)
	first, drain := pipeObservers(tr)
	if first == tr {
		t.Error("one run on two cores: observers not piped")
	}
	running.Add(1)
	if second, _ := pipeObservers(tr); second != tr {
		t.Error("second run on two cores: observers piped beside a busy pipe")
	}
	running.Add(-1)
	drain()
	pooled.Add(2)
	if p, _ := pipeObservers(tr); p != tr {
		t.Error("pool of two on two cores: observers piped")
	}
	pooled.Add(-2)
	running.Add(-1)
	if n := pipes.Load(); n != 0 {
		t.Errorf("%d pipes counted after every drain", n)
	}
}
