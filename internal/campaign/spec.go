// Package campaign runs declarative experiment sweeps as resumable jobs.
//
// A campaign spec enumerates (scenario × arm × seed) cells over the
// experiment registry (plus the Figure 12/13 showcases); the runner shards
// cells across a bounded worker pool, journals every completed cell to an
// append-only checkpoint file (results/<campaign>/journal.jsonl), and on
// restart replays the journal so only missing cells execute — an interrupt
// mid-campaign loses at most the in-flight cells. Aggregation is streaming
// (Welford mean/variance with 95% CIs per arm and per γ/λ pair) and the
// finalize step writes machine-readable per-figure JSON artifacts. The
// aggregator folds results in canonical seed order regardless of
// completion or replay order, so an interrupted-and-resumed campaign
// produces byte-identical artifacts to an uninterrupted one.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/vanetsec/georoute/internal/experiment"
)

// Showcase figure IDs handled outside the experiment registry.
const (
	hazardGFID  = "fig12a"
	hazardCBFID = "fig12b"
	curveID     = "fig13"
)

// Spec declares a campaign: which figures to sweep and how many seeded
// repetitions per arm. It is a plain Go struct loadable from JSON (see
// campaigns/ for bundled specs).
type Spec struct {
	// Name labels the campaign; results and the journal live under
	// results/<name>/.
	Name string `json:"name"`
	// Runs is the number of seeded repetitions per arm (the paper's full
	// protocol uses 100). Zero means 1; negative is an error.
	Runs int `json:"runs"`
	// Figures lists experiment registry IDs to sweep, or the single entry
	// "all" for the whole registry.
	Figures []string `json:"figures"`
	// HazardSeeds > 0 adds the Figure 12 showcases (fig12a GF and fig12b
	// CBF; attack-free and attacked arms, seeds 1..HazardSeeds).
	HazardSeeds int `json:"hazard_seeds,omitempty"`
	// Curve adds the Figure 13 blind-curve pair (af/atk, seed 1).
	Curve bool `json:"curve,omitempty"`
	// Tables emits the static Table I/II configuration artifacts at
	// finalize.
	Tables bool `json:"tables,omitempty"`
}

// LoadSpec reads and validates a JSON campaign spec.
func LoadSpec(path string) (Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: %w", err)
	}
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("campaign: parsing %s: %w", path, err)
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Validate checks the spec references only known experiments and
// normalizes defaults.
func (sp *Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("campaign: spec needs a name")
	}
	for _, r := range sp.Name {
		if r == '/' || r == '\\' || r == '.' {
			return fmt.Errorf("campaign: name %q must be a plain directory name", sp.Name)
		}
	}
	if sp.Runs < 0 || sp.HazardSeeds < 0 {
		return fmt.Errorf("campaign: spec %q has a negative runs or hazard_seeds count", sp.Name)
	}
	if sp.Runs == 0 {
		sp.Runs = 1
	}
	if _, err := sp.figureIDs(); err != nil {
		return err
	}
	if len(sp.Figures) == 0 && sp.HazardSeeds == 0 && !sp.Curve {
		return fmt.Errorf("campaign: spec %q enumerates no cells", sp.Name)
	}
	return nil
}

// figureIDs resolves the Figures list ("all" → full registry) to sorted,
// deduplicated registry IDs.
func (sp Spec) figureIDs() ([]string, error) {
	if len(sp.Figures) == 1 && sp.Figures[0] == "all" {
		return experiment.FigureIDs(), nil
	}
	figs := experiment.Figures()
	seen := make(map[string]bool, len(sp.Figures))
	var ids []string
	for _, id := range sp.Figures {
		if _, ok := figs[id]; !ok {
			return nil, fmt.Errorf("campaign: unknown figure %q (see geosim -list)", id)
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Hash returns a stable digest of the resolved spec. It is written to the
// journal header so a resume against a modified spec fails loudly instead
// of mixing incompatible cells.
func (sp Spec) Hash() string {
	ids, _ := sp.figureIDs()
	canon := struct {
		Name        string   `json:"name"`
		Runs        int      `json:"runs"`
		Figures     []string `json:"figures"`
		HazardSeeds int      `json:"hazard_seeds"`
		Curve       bool     `json:"curve"`
		Tables      bool     `json:"tables"`
	}{sp.Name, sp.Runs, ids, sp.HazardSeeds, sp.Curve, sp.Tables}
	b, err := json.Marshal(canon)
	if err != nil {
		panic(err) // static struct of plain fields cannot fail to marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Cell identifies one runnable unit of the campaign. Figure cells carry
// the registry figure ID; showcase cells use the fig12a/fig12b/fig13 IDs
// with arms "af"/"atk".
type Cell struct {
	Figure string
	Arm    string
	Seed   uint64
}

// Key renders the stable journal key, "<figure>/<arm>/<seed>".
func (c Cell) Key() string { return fmt.Sprintf("%s/%s/%d", c.Figure, c.Arm, c.Seed) }

// Cells enumerates every cell of the campaign in canonical order: sorted
// figure IDs (arm declaration order, ascending seed within each), then the
// hazard showcases, then the curve pair. The canonical order is also the
// dispatch order and — via the in-order aggregator — the aggregation
// order, which is what makes resumed campaigns byte-identical.
func (sp Spec) Cells() ([]Cell, error) {
	ids, err := sp.figureIDs()
	if err != nil {
		return nil, err
	}
	figs := experiment.Figures()
	var cells []Cell
	for _, id := range ids {
		for _, ec := range figs[id].Cells(sp.Runs) {
			cells = append(cells, Cell{Figure: ec.Figure, Arm: ec.Arm, Seed: ec.Seed})
		}
	}
	for _, id := range []string{hazardGFID, hazardCBFID} {
		for _, arm := range []string{"af", "atk"} {
			for s := 1; s <= sp.HazardSeeds; s++ {
				cells = append(cells, Cell{Figure: id, Arm: arm, Seed: uint64(s)})
			}
		}
	}
	if sp.Curve {
		cells = append(cells,
			Cell{Figure: curveID, Arm: "af", Seed: 1},
			Cell{Figure: curveID, Arm: "atk", Seed: 1},
		)
	}
	return cells, nil
}
