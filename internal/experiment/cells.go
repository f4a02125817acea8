package experiment

import (
	"fmt"

	"github.com/vanetsec/georoute/internal/trace"
)

// Cell identifies one independently runnable unit of an experiment sweep:
// a single seeded run of one arm of one figure. Cell keys are the stable
// identity used by the campaign journal — they must never change meaning
// across versions, or resumed campaigns would silently re-use results from
// a different experiment.
type Cell struct {
	Figure string
	Arm    string
	Seed   uint64
}

// Key renders the cell's stable journal key, "<figure>/<arm>/<seed>".
// Figure IDs and arm labels never contain '/'.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%s/%d", c.Figure, c.Arm, c.Seed)
}

// Arm resolves an arm label to its scenario.
func (f Figure) Arm(label string) (Scenario, bool) {
	for _, a := range f.Arms {
		if a.Label == label {
			return a.Scenario, true
		}
	}
	return Scenario{}, false
}

// Cells enumerates the figure's (arm × seed) cells for `runs` repetitions
// per arm, in the canonical order (arm declaration order, then ascending
// seed). Seeds are absolute: the arm scenario's base seed plus the run
// index, exactly the seeds RunArm would use.
func (f Figure) Cells(runs int) []Cell {
	if runs <= 0 {
		runs = 1
	}
	cells := make([]Cell, 0, len(f.Arms)*runs)
	for _, a := range f.Arms {
		for i := 0; i < runs; i++ {
			cells = append(cells, Cell{Figure: f.ID, Arm: a.Label, Seed: a.Scenario.Seed + uint64(i)})
		}
	}
	return cells
}

// RunCell executes one cell of the figure.
func (f Figure) RunCell(c Cell) (RunResult, error) {
	return f.RunCellTraced(c, nil)
}

// RunCellTraced executes one cell with a lifecycle tracer threaded through
// the run (nil behaves exactly like RunCell).
func (f Figure) RunCellTraced(c Cell, tr *trace.Tracer) (RunResult, error) {
	return f.RunCellObserved(c, Observe{Tracer: tr})
}

// RunCellObserved executes one cell with both observability sinks (see
// Observe); the zero Observe behaves exactly like RunCell.
func (f Figure) RunCellObserved(c Cell, obs Observe) (RunResult, error) {
	if c.Figure != f.ID {
		return RunResult{}, fmt.Errorf("experiment: cell %s run against figure %s", c.Key(), f.ID)
	}
	s, ok := f.Arm(c.Arm)
	if !ok {
		return RunResult{}, fmt.Errorf("experiment: cell %s references unknown arm", c.Key())
	}
	return RunOnceObserved(s, c.Seed, obs), nil
}

// RunIndex converts a cell's absolute seed back to its 0-based run index
// within the arm, the index used to pair attack-free and attacked runs.
func (f Figure) RunIndex(c Cell) (int, error) {
	s, ok := f.Arm(c.Arm)
	if !ok {
		return 0, fmt.Errorf("experiment: cell %s references unknown arm", c.Key())
	}
	if c.Seed < s.Seed {
		return 0, fmt.Errorf("experiment: cell %s has seed below the arm base %d", c.Key(), s.Seed)
	}
	return int(c.Seed - s.Seed), nil
}
