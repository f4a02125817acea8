package campaign

import "github.com/vanetsec/georoute/internal/detect"

// DetectionArtifact is results/<campaign>/detection.json: the per-figure,
// per-arm misbehavior-detection report of a campaign run with Options.
// Detect. For every arm it carries the run count, how many runs detected
// the attack (recall), the mean sim-time latency of the first true
// verdict, and per-check true/false-positive tallies with derived
// precision. Attack-free arms document the false-alarm budget: at default
// thresholds their verdict counts are zero.
//
// Like resources.json, this artifact is NOT listed in summary.json's
// figure index — the byte-identical artifact set is unchanged by running
// detection — but unlike resources.json it contains no wall-clock state,
// so re-finalizing the same journal reproduces it byte for byte.
type DetectionArtifact struct {
	Campaign string                                  `json:"campaign"`
	Runs     int                                     `json:"runs"`
	Figures  map[string]map[string]detect.ArmSummary `json:"figures"`
}

// detectionArtifact collects each figure fold's per-arm detection reports
// (maps serialize key-sorted, and each fold saw its runs in seed order).
func (a *Aggregator) detectionArtifact() DetectionArtifact {
	art := DetectionArtifact{
		Campaign: a.spec.Name,
		Runs:     a.spec.Runs,
		Figures:  make(map[string]map[string]detect.ArmSummary, len(a.figIDs)),
	}
	for _, id := range a.figIDs {
		art.Figures[id] = a.folds[id].Detection()
	}
	return art
}
