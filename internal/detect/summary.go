package detect

import "sort"

// CheckStats is one check's verdict tally for a run (or an arm when
// folded): verdicts whose suspect was the ground-truth attacker versus
// false alarms against honest nodes.
type CheckStats struct {
	TruePositives  uint64 `json:"tp"`
	FalsePositives uint64 `json:"fp"`
}

// Summary is one run's aggregate detection outcome — the compact record
// that rides RunResult through journals instead of the raw verdict
// stream. Detected means at least one true verdict fired;
// LatencySeconds is that first true verdict's simulation time measured
// from run start (the attacker is active from t=0).
type Summary struct {
	Verdicts       uint64                `json:"verdicts"`
	Detected       bool                  `json:"detected"`
	LatencySeconds float64               `json:"latency_seconds,omitempty"`
	Checks         map[string]CheckStats `json:"checks,omitempty"`
}

// CheckArm is one check's arm-level tally with its derived precision.
type CheckArm struct {
	TruePositives  uint64  `json:"tp"`
	FalsePositives uint64  `json:"fp"`
	Precision      float64 `json:"precision"`
}

// ArmSummary is the per-arm detection report written into
// detection.json: how many runs detected the attack, how fast, and how
// each check performed. FalseAlarmRate is the fraction of runs with at
// least one false verdict — on benign arms at the fixed thresholds it must
// be exactly 0.
type ArmSummary struct {
	Runs               int                 `json:"runs"`
	DetectedRuns       int                 `json:"detected_runs"`
	Recall             float64             `json:"recall"`
	MeanLatencySeconds float64             `json:"mean_latency_seconds,omitempty"`
	Verdicts           uint64              `json:"verdicts"`
	FalseAlarmRuns     int                 `json:"false_alarm_runs"`
	FalseAlarmRate     float64             `json:"false_alarm_rate"`
	Checks             map[string]CheckArm `json:"checks,omitempty"`
}

// Fold accumulates per-run Summaries into an ArmSummary. Feed runs in
// canonical seed order so float sums stay deterministic.
type Fold struct {
	runs     int
	detected int
	latSum   float64
	verdicts uint64
	fpRuns   int
	checks   map[string]CheckStats
}

// Add folds one run's summary. A nil summary still counts the run (a
// detection-off run detected nothing).
func (f *Fold) Add(s *Summary) {
	f.runs++
	if s == nil {
		return
	}
	f.verdicts += s.Verdicts
	if s.Detected {
		f.detected++
		f.latSum += s.LatencySeconds
	}
	falseRun := false
	for name, cs := range s.Checks {
		if f.checks == nil {
			f.checks = make(map[string]CheckStats)
		}
		agg := f.checks[name]
		agg.TruePositives += cs.TruePositives
		agg.FalsePositives += cs.FalsePositives
		f.checks[name] = agg
		if cs.FalsePositives > 0 {
			falseRun = true
		}
	}
	if falseRun {
		f.fpRuns++
	}
}

// Result derives the arm summary from the folded runs.
func (f *Fold) Result() ArmSummary {
	out := ArmSummary{
		Runs:           f.runs,
		DetectedRuns:   f.detected,
		Verdicts:       f.verdicts,
		FalseAlarmRuns: f.fpRuns,
	}
	if f.runs > 0 {
		out.Recall = float64(f.detected) / float64(f.runs)
		out.FalseAlarmRate = float64(f.fpRuns) / float64(f.runs)
	}
	if f.detected > 0 {
		out.MeanLatencySeconds = f.latSum / float64(f.detected)
	}
	if len(f.checks) > 0 {
		out.Checks = make(map[string]CheckArm, len(f.checks))
		names := make([]string, 0, len(f.checks))
		for name := range f.checks {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cs := f.checks[name]
			ca := CheckArm{TruePositives: cs.TruePositives, FalsePositives: cs.FalsePositives}
			if total := cs.TruePositives + cs.FalsePositives; total > 0 {
				ca.Precision = float64(cs.TruePositives) / float64(total)
			}
			out.Checks[name] = ca
		}
	}
	return out
}
