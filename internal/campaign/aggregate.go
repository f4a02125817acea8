package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/vanetsec/georoute/internal/experiment"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/showcase"
)

// Aggregator folds completed cells into the campaign's artifacts. Cells
// arrive in arbitrary order — workers complete out of order and journal
// replay preserves completion order of the previous process — and each
// figure's runs go to its experiment.Fold, the same fold Figure.Run uses,
// which restores seed order. That is what makes a resumed campaign's
// artifacts byte-identical to an uninterrupted run's and to direct
// -experiment mode. The Aggregator itself keeps only journal-level
// concerns: duplicate cells, the showcase and resource folds, and
// Finalize.
type Aggregator struct {
	spec   Spec
	figIDs []string
	folds  map[string]*experiment.Fold
	hazard map[string]map[string]*hazardArmAgg
	curve  map[string]*showcase.CurveResult
	done   map[string]bool
	// resources collects per-cell cost measurements for the resources.json
	// trajectory (see CellResources). Keyed by cell key; cells journaled
	// without measurements are simply absent.
	resources map[string]CellResources
	// sawDetection records whether any fed run carried a detection
	// summary; only then does Finalize emit detection.json.
	sawDetection bool
}

// hazardArmAgg folds one arm of a Figure 12 showcase. All sums are
// integers, so folding order cannot change the result.
type hazardArmAgg struct {
	seeds    int
	countSum []int64
	closed   int
	closeSum time.Duration
}

// NewAggregator prepares the streaming state for every cell the spec
// enumerates.
func NewAggregator(sp Spec) (*Aggregator, error) {
	ids, err := sp.figureIDs()
	if err != nil {
		return nil, err
	}
	a := &Aggregator{
		spec:   sp,
		figIDs: ids,
		folds:  make(map[string]*experiment.Fold, len(ids)),
		hazard: make(map[string]map[string]*hazardArmAgg),
		curve:  make(map[string]*showcase.CurveResult),
		done:   make(map[string]bool),

		resources: make(map[string]CellResources),
	}
	figs := experiment.Figures()
	for _, id := range ids {
		a.folds[id] = experiment.NewFold(figs[id], sp.Runs)
	}
	if sp.HazardSeeds > 0 {
		for _, id := range []string{hazardGFID, hazardCBFID} {
			a.hazard[id] = map[string]*hazardArmAgg{"af": {}, "atk": {}}
		}
	}
	return a, nil
}

// Feed folds one completed cell. It is not safe for concurrent use; the
// runner feeds it from a single collector goroutine.
func (a *Aggregator) Feed(c experiment.Cell, res CellResult) error {
	key := c.Key()
	if a.done[key] {
		return fmt.Errorf("campaign: cell %s aggregated twice", key)
	}
	a.done[key] = true
	if res.Resources != nil {
		a.resources[key] = *res.Resources
	}
	switch c.Figure {
	case hazardGFID, hazardCBFID:
		if res.Hazard == nil {
			return fmt.Errorf("campaign: cell %s has no hazard result", key)
		}
		arms, ok := a.hazard[c.Figure]
		if !ok {
			return fmt.Errorf("campaign: unexpected hazard cell %s", key)
		}
		h, ok := arms[c.Arm]
		if !ok {
			return fmt.Errorf("campaign: unknown hazard arm in cell %s", key)
		}
		h.feed(res.Hazard)
		return nil
	case curveID:
		if res.Curve == nil {
			return fmt.Errorf("campaign: cell %s has no curve result", key)
		}
		a.curve[c.Arm] = res.Curve
		return nil
	}

	if res.Run == nil {
		return fmt.Errorf("campaign: cell %s has no run result", key)
	}
	if res.Run.Detection != nil {
		a.sawDetection = true
	}
	fold, ok := a.folds[c.Figure]
	if !ok {
		return fmt.Errorf("campaign: cell %s references unknown figure", key)
	}
	return fold.Add(c, res.Run)
}

func (h *hazardArmAgg) feed(r *showcase.HazardResult) {
	h.seeds++
	for len(h.countSum) < len(r.VehicleCount) {
		h.countSum = append(h.countSum, 0)
	}
	for i, v := range r.VehicleCount {
		h.countSum[i] += int64(v)
	}
	if r.GateClosedAt > 0 {
		h.closed++
		h.closeSum += r.GateClosedAt
	}
}

// missing lists the cells the aggregator has not seen, in canonical order.
func (a *Aggregator) missing() []string {
	cells, err := a.spec.Cells()
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	for _, c := range cells {
		if !a.done[c.Key()] {
			out = append(out, c.Key())
		}
	}
	return out
}

func (a *Aggregator) hazardArtifact(id string) HazardArtifact {
	title := "Hazard + GF notification: vehicles on road over time"
	if id == hazardCBFID {
		title = "Hazard + CBF notification: vehicles on road over time"
	}
	art := HazardArtifact{ID: id, Title: title, Seeds: a.spec.HazardSeeds, Arms: make(map[string]HazardArmArtifact, 2)}
	for arm, h := range a.hazard[id] {
		aa := HazardArmArtifact{
			MeanVehicleCount: make([]float64, len(h.countSum)),
			GateClosedRuns:   h.closed,
		}
		for i, s := range h.countSum {
			aa.MeanVehicleCount[i] = float64(s) / float64(h.seeds)
		}
		if h.closed > 0 {
			aa.MeanGateCloseSeconds = (h.closeSum / time.Duration(h.closed)).Seconds()
		}
		art.Arms[arm] = aa
	}
	return art
}

// summaryPair is one line of the campaign summary.
type summaryPair struct {
	Drop       float64        `json:"drop"`
	PaperDrop  float64        `json:"paper_drop"`
	DropSpread metrics.Spread `json:"drop_spread"`
}

// Summary is the campaign-level index written to summary.json.
type Summary struct {
	Campaign string                            `json:"campaign"`
	SpecHash string                            `json:"spec_hash"`
	Runs     int                               `json:"runs"`
	Cells    int                               `json:"cells"`
	Figures  []string                          `json:"figures"`
	Drops    map[string]map[string]summaryPair `json:"drops"`
}

// Finalize verifies the campaign is complete and writes the per-figure
// artifacts plus summary.json into dir. Artifacts contain no timestamps
// or host state, so re-finalizing the same journal always reproduces the
// same bytes.
func (a *Aggregator) Finalize(dir string) error {
	if miss := a.missing(); len(miss) > 0 {
		if len(miss) > 5 {
			miss = append(miss[:5], fmt.Sprintf("… %d more", len(miss)-5))
		}
		return fmt.Errorf("campaign: incomplete — missing cells: %v", miss)
	}
	sum := Summary{
		Campaign: a.spec.Name,
		SpecHash: a.spec.Hash(),
		Runs:     a.spec.Runs,
		Cells:    len(a.done),
		Figures:  append([]string{}, a.figIDs...),
		Drops:    make(map[string]map[string]summaryPair),
	}
	var tourRes, localMinRes *experiment.FigureResult
	for _, id := range a.figIDs {
		res := a.folds[id].Result()
		art := BuildFigureArtifact(res)
		if err := writeArtifact(dir, id, art); err != nil {
			return err
		}
		drops := make(map[string]summaryPair, len(res.Figure.Pairs))
		for _, p := range res.Figure.Pairs {
			drops[p.Label] = summaryPair{Drop: res.Drops[p.Label], PaperDrop: p.PaperDrop, DropSpread: res.DropSpread[p.Label]}
		}
		sum.Drops[id] = drops
		switch id {
		case tournamentID:
			r := res
			tourRes = &r
		case tournamentLocalMinID:
			r := res
			localMinRes = &r
		}
	}
	// A campaign covering the tournament figure also emits the ranked
	// leaderboard across every competing strategy.
	if tourRes != nil {
		sum.Figures = append(sum.Figures, rankingID)
		if err := writeArtifact(dir, rankingID, BuildRankingArtifact(*tourRes, localMinRes)); err != nil {
			return err
		}
	}
	if a.spec.HazardSeeds > 0 {
		for _, id := range []string{hazardGFID, hazardCBFID} {
			sum.Figures = append(sum.Figures, id)
			if err := writeArtifact(dir, id, a.hazardArtifact(id)); err != nil {
				return err
			}
		}
	}
	if a.spec.Curve {
		sum.Figures = append(sum.Figures, curveID)
		art := BuildCurveArtifact(*a.curve["af"], *a.curve["atk"])
		if err := writeArtifact(dir, curveID, art); err != nil {
			return err
		}
	}
	if a.spec.Tables {
		sum.Figures = append(sum.Figures, "tables")
		if err := writeArtifact(dir, "tables", BuildTablesArtifact()); err != nil {
			return err
		}
	}
	sort.Strings(sum.Figures)
	// The resource trajectory is wall-clock data and deliberately NOT
	// listed in the summary's figure index: summary.json stays part of the
	// byte-identical artifact set while resources.json sits outside it.
	if len(a.resources) > 0 {
		art, err := a.resourcesArtifact()
		if err != nil {
			return err
		}
		if err := writeArtifact(dir, "resources", art); err != nil {
			return err
		}
	}
	// Detection results likewise sit outside the byte-identity set: the
	// same campaign finalizes the same summary.json and figure artifacts
	// whether or not the plausibility monitors were armed.
	if a.sawDetection {
		if err := writeArtifact(dir, "detection", a.detectionArtifact()); err != nil {
			return err
		}
	}
	return writeArtifact(dir, "summary", sum)
}

// marshalArtifact is the one serialization used for every artifact, so
// campaign output and direct-mode output are comparable byte for byte.
func marshalArtifact(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeArtifact writes one pretty-printed JSON artifact atomically (tmp +
// rename), so a crash during finalize never leaves a half-written
// artifact next to a complete journal.
func writeArtifact(dir, name string, v any) error {
	b, err := marshalArtifact(v)
	if err != nil {
		return fmt.Errorf("campaign: encoding %s artifact: %w", name, err)
	}
	tmp := filepath.Join(dir, name+".json.tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name+".json")); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}
