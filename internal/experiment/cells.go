package experiment

import (
	"context"
	"fmt"
	"sync"
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

// RunCell executes one cell of the figure under the given observers;
// the zero Observe is an unobserved run.
func (f Figure) RunCell(c Cell, obs Observe) (RunResult, error) {
	if c.Figure != f.ID {
		return RunResult{}, fmt.Errorf("experiment: cell %s run against figure %s", c.Key(), f.ID)
	}
	s, ok := f.Arm(c.Arm)
	if !ok {
		return RunResult{}, fmt.Errorf("experiment: cell %s references unknown arm", c.Key())
	}
	return RunOnceObserved(s, c.Seed, obs), nil
}

// RunHooked runs one cell on pool worker `worker` under the observers
// the hook provisions for it (a nil hook is an unobserved run). The hook's
// finalizer runs right after the cell; the first error wins.
func (f Figure) RunHooked(c Cell, worker int, hook ObserveHook) (RunResult, error) {
	var obs Observe
	var finish func() error
	if hook != nil {
		var err error
		if obs, finish, err = hook(c, worker); err != nil {
			return RunResult{}, err
		}
	}
	res, err := f.RunCell(c, obs)
	if finish != nil {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}
	return res, err
}

// RunCells is the one pool that runs cells: run executes each cell on one
// of min(workers, len(cells)) goroutines (at least one), passing the
// goroutine's fixed worker index, and done receives every completion, in
// completion order, on the caller's goroutine — so done needs no locking.
// Dispatch stops once ctx ends or done returns an error; cells already
// running still finish, and still reach done unless done has failed.
// RunCells returns done's first error; a caller that passes a cancellable
// ctx reads ctx.Err() to tell an interrupted run from a complete one.
func RunCells[R any](ctx context.Context, cells []Cell, workers int,
	run func(c Cell, worker int) (R, error), done func(c Cell, r R, err error) error) error {
	if len(cells) == 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type completion struct {
		cell Cell
		res  R
		err  error
	}
	jobs := make(chan Cell)
	results := make(chan completion)
	var wg sync.WaitGroup
	n := max(1, min(workers, len(cells)))
	pooled.Add(int32(n))
	defer pooled.Add(-int32(n))
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for c := range jobs {
				res, err := run(c, worker)
				results <- completion{cell: c, res: res, err: err}
			}
		}(w)
	}
	go func() {
		defer close(jobs)
		for _, c := range cells {
			if ctx.Err() != nil {
				return
			}
			select {
			case jobs <- c:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	var firstErr error
	for d := range results {
		if firstErr != nil {
			continue // drain the cells still running
		}
		if firstErr = done(d.cell, d.res, d.err); firstErr != nil {
			cancel()
		}
	}
	return firstErr
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
