// Package detect is the misbehavior-detection observability layer: per-node
// plausibility monitors that watch the routers' receive paths as pure
// observers and flag physically implausible claims — the consistency-check
// countermeasure direction the paper points at, since replayed beacons are
// cryptographically valid and signature checking alone cannot flag them.
//
// A Detector is a trace.Sink. The router records every claim it accepts
// (rx records whose position vector entered its LocT) and every echo of
// its own packets (own_echo drops) on its one observer, the
// *trace.Tracer; the detector reads them from there, so with tracing off
// the receive path does no detection work at all. Monitors never touch
// protocol state — golden artifacts stay byte-identical with detection
// on or off. Verdicts are observability output (counters, a Summary, an
// optional sink), not a mitigation: flagged frames are still processed
// by the router.
//
// Monitor taxonomy (one Check per class of implausibility):
//
//   - CheckBeacon: single-hop beacon inter-arrival floor. A source beacons
//     every BeaconInterval+jitter (3s+0–750ms), so two beacons
//     from one source inside MinBeaconGap mean a second emitter — the
//     replay pipeline — is injecting copies.
//   - CheckPosition: claimed-position plausibility. A single-hop claim
//     placing its source farther than RangeFactor× the receiver's own
//     radio range cannot have been heard directly; successive claims
//     implying super-vehicular speed (> MaxSpeed) are teleporting.
//   - CheckReplay: recency. A single-hop claim whose PV timestamp is not
//     strictly newer than the previous claim from that source is a stale
//     copy; an echo of the node's own packet whose consumed hop budget is
//     impossible in the elapsed time (each real hop costs at least
//     MinHopDelay of access+airtime) — or any echo of the node's own
//     beacon, which no honest node ever retransmits — is a replay.
//   - CheckChurn: neighbor-claim cadence. More than ChurnMax single-hop
//     claims for one source inside ChurnWindow matches the hijack's
//     LocT-poisoning cadence (every beacon arrives twice: direct + replay).
//
// Suspect attribution is the link-layer sender of the offending frame.
// When direct and replayed copies interleave, the flagged arrival can be
// the innocent victim's own (the replayer made the victim's claim stream
// anomalous), so per-check precision in attack arms is reported rather
// than assumed 1.0; no check fires in attack-free runs.
package detect

import (
	"fmt"
	"sync"
	"time"
)

// Check identifies one plausibility-monitor class.
type Check uint8

const (
	// CheckBeacon flags beacon inter-arrival below the benign floor.
	CheckBeacon Check = iota
	// CheckPosition flags out-of-range or super-speed position claims.
	CheckPosition
	// CheckReplay flags stale timestamps and implausible own-packet echoes.
	CheckReplay
	// CheckChurn flags neighbor-claim cadence above the benign rate.
	CheckChurn

	numChecks
)

func (c Check) String() string {
	switch c {
	case CheckBeacon:
		return "beacon_interarrival"
	case CheckPosition:
		return "position_plausibility"
	case CheckReplay:
		return "replay_recency"
	case CheckChurn:
		return "loct_churn"
	}
	return fmt.Sprintf("Check(%d)", uint8(c))
}

// Verdict is one detection event: a node accusing a link-layer sender of
// an implausible frame at a simulation time, with the evidence rendered
// for humans. True is the ground-truth label (suspect is the attacker's
// pseudonym) when the detector was configured with a Truth func.
type Verdict struct {
	At       time.Duration `json:"t"`
	Node     uint64        `json:"node"`
	Suspect  uint64        `json:"suspect"`
	Check    Check         `json:"-"`
	CheckStr string        `json:"check"`
	True     bool          `json:"true"`
	Evidence string        `json:"evidence,omitempty"`
}

// Plausibility thresholds. Each admits every honest node of the model
// (TestThresholdsAdmitHonestNodes checks the bounds against the protocol,
// radio and mobility constants they depend on) and names the replay
// attacker it catches; an attacker who stays inside a bound goes unseen
// by that check.
const (
	// MinBeaconGap is the beacon inter-arrival floor per source. Honest:
	// a source beacons at least BeaconInterval−BeaconJitter = 2.25 s
	// apart. Catches: a replayer re-injecting a neighbor's beacon less
	// than 1 s after the original, as the paper's pipeline does.
	MinBeaconGap = time.Second
	// MaxSpeed is the implied-speed ceiling between successive claims, in
	// m/s. Honest: the IDM's desired velocity is 30 m/s. Catches: a
	// replay relaying a claim from a position its source could not have
	// driven to since its previous claim.
	MaxSpeed = 70.0
	// RangeFactor scales the receiver's radio range into the maximum
	// plausible distance of a directly-heard neighbor. Honest: soft-edge
	// reception stretches the range by at most radio.SoftEdgeFactor
	// (1.15). Catches: the inter-area hijack, whose single-hop beacon
	// claims a source beyond 1.6× the range.
	RangeFactor = 1.6
	// ChurnWindow and ChurnMax bound single-hop claims per source: more
	// than ChurnMax inside ChurnWindow flags. Honest: beacons 2.25 s
	// apart fit at most 2 into any 4 s window. Catches: the LocT-poisoning
	// cadence of the hijack, where every beacon arrives twice (direct and
	// replayed).
	ChurnWindow = 4 * time.Second
	ChurnMax    = 2
	// MinHopDelay is the minimum believable per-hop latency. Honest: every
	// radio hop costs the medium's fixed 500 µs delivery latency. Catches:
	// an echo of a node's own packet whose consumed hop budget could not
	// fit in the time since its origination — a replay that short-cut
	// the path.
	MinHopDelay = 500 * time.Microsecond
	// PosError is the position measurement allowance of the implied-speed
	// check, in meters: successive claims flag only when their
	// displacement exceeds MaxSpeed·dt + PosError. Honest: GNSS fixes
	// carry meters of error, and the mobility model integrates positions
	// at a discrete tick while PV timestamps are continuous, so two claims
	// sampled closely in time can show a whole tick's displacement in
	// near-zero claimed time. Catches: a relayed claim displaced by more
	// than 5 m beyond the speed envelope.
	PosError = 5.0
)

// Config parameterizes a Detector's outputs; the thresholds above are
// fixed.
type Config struct {
	// Truth labels a suspect as ground-truth attacker. Nil labels every
	// verdict false (offline replay of unlabeled traces).
	Truth func(suspect uint64) bool
	// Sink, when non-nil, receives every verdict. Evidence strings are
	// only rendered when a sink is installed.
	Sink func(Verdict)
}

// Detector runs the monitors of every node of one run and aggregates
// their verdicts. Feed it records as a trace.Sink; a nil Detector's
// Summary is nil.
type Detector struct {
	cfg Config
	// nodes is the monitors' memory: per receiving node, per claim source.
	nodes map[uint64]map[uint64]*srcState

	mu        sync.Mutex
	verdicts  uint64
	detected  bool
	firstTrue time.Duration
	checks    [numChecks]struct{ tp, fp uint64 }
}

// New constructs a Detector.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg, nodes: make(map[uint64]map[uint64]*srcState)}
}

// Summary snapshots the run's aggregate detection outcome. Nil on a nil
// Detector.
func (d *Detector) Summary() *Summary {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &Summary{Verdicts: d.verdicts, Detected: d.detected}
	if d.detected {
		s.LatencySeconds = d.firstTrue.Seconds()
	}
	for c := Check(0); c < numChecks; c++ {
		cc := d.checks[c]
		if cc.tp == 0 && cc.fp == 0 {
			continue
		}
		if s.Checks == nil {
			s.Checks = make(map[string]CheckStats, int(numChecks))
		}
		s.Checks[c.String()] = CheckStats{TruePositives: cc.tp, FalsePositives: cc.fp}
	}
	return s
}

// flag records one verdict: ground-truth labeling, counters, first-true
// latency, and the optional sink. evidence is rendered lazily so the
// no-sink path never formats strings.
func (d *Detector) flag(at time.Duration, node, suspect uint64, check Check, evidence func() string) {
	isTrue := d.cfg.Truth != nil && d.cfg.Truth(suspect)
	d.mu.Lock()
	d.verdicts++
	if isTrue {
		d.checks[check].tp++
		if !d.detected {
			d.detected = true
			d.firstTrue = at
		}
	} else {
		d.checks[check].fp++
	}
	d.mu.Unlock()
	if d.cfg.Sink != nil {
		d.cfg.Sink(Verdict{
			At: at, Node: node, Suspect: suspect,
			Check: check, CheckStr: check.String(),
			True: isTrue, Evidence: evidence(),
		})
	}
}
