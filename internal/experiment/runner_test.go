package experiment

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/metrics"
	"github.com/vanetsec/georoute/internal/radio"
)

// tinyScenario is the smallest useful arm: a short generation window on
// the full road, enough to emit a handful of packets.
func tinyScenario() Scenario {
	s := Default()
	s.Duration = 10 * time.Second
	s.Drain = 5 * time.Second
	return s
}

func TestMaxParallelAtLeastOne(t *testing.T) {
	if MaxParallel() < 1 {
		t.Fatalf("MaxParallel() = %d", MaxParallel())
	}
}

func TestFigureRunFewerCellsThanWorkers(t *testing.T) {
	// One cell on an N-core pool: the worker cap must shrink to the cell
	// count and still execute everything exactly once.
	fig := Figure{ID: "one", Arms: []Arm{{Label: "af", Scenario: tinyScenario()}}}
	res, err := fig.Run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets["af"] == 0 {
		t.Fatalf("single cell not executed: %+v", res)
	}
}

func TestFigureRunNoCells(t *testing.T) {
	// A figure without arms has no cells: must not deadlock or panic.
	if _, err := (Figure{ID: "empty"}).Run(3, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFigureRunHookSeesEveryCell checks the observer hook is consulted
// once per cell, with the arm's seeds and a worker index inside the pool,
// and that hook and finalizer errors come back as errors.
func TestFigureRunHookSeesEveryCell(t *testing.T) {
	s := tinyScenario()
	s.Seed = 40
	fig := Figure{ID: "hook", Arms: []Arm{{Label: "af", Scenario: s}}}
	var mu sync.Mutex
	seen := make(map[uint64]int)
	finished := 0
	_, err := fig.Run(3, func(c Cell, worker int) (Observe, func() error, error) {
		if worker < 0 || worker >= MaxParallel() {
			t.Errorf("worker %d outside the pool", worker)
		}
		mu.Lock()
		seen[c.Seed]++
		mu.Unlock()
		return Observe{}, func() error {
			mu.Lock()
			finished++
			mu.Unlock()
			return nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[40] != 1 || seen[41] != 1 || seen[42] != 1 || finished != 3 {
		t.Fatalf("hook calls per seed = %v, finalizers = %d", seen, finished)
	}

	boom := errors.New("boom")
	if _, err := fig.Run(2, func(Cell, int) (Observe, func() error, error) {
		return Observe{}, nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("hook error = %v, want boom", err)
	}
	if _, err := fig.Run(2, func(Cell, int) (Observe, func() error, error) {
		return Observe{}, func() error { return boom }, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("finalizer error = %v, want boom", err)
	}
}

func TestFoldMergesRuns(t *testing.T) {
	s := tinyScenario()
	s.Duration, s.BinWidth = 10*time.Second, 5*time.Second
	mk := func(v float64, packets int, replayed uint64) *RunResult {
		series := metrics.NewBinSeries(s.Duration, s.BinWidth)
		series.Add(time.Second, v)
		return &RunResult{
			Series:        series,
			PacketsSent:   packets,
			AttackerStats: attack.Stats{BeaconsReplayed: replayed},
		}
	}
	fig := Figure{ID: "f", Arms: []Arm{{Label: "a", Scenario: s}}}
	fo := NewFold(fig, 2)
	// Run 1 arrives first and waits for run 0.
	if err := fo.Add(Cell{Figure: "f", Arm: "a", Seed: s.Seed + 1}, mk(0, 4, 7)); err != nil {
		t.Fatal(err)
	}
	if err := fo.Add(Cell{Figure: "f", Arm: "a", Seed: s.Seed}, mk(1, 3, 5)); err != nil {
		t.Fatal(err)
	}
	m := fo.Arm("a")
	if m.PacketsSent != 7 {
		t.Errorf("PacketsSent = %d, want 7", m.PacketsSent)
	}
	if m.AttackerStats.BeaconsReplayed != 12 {
		t.Errorf("BeaconsReplayed = %d, want 12", m.AttackerStats.BeaconsReplayed)
	}
	if r, ok := m.Series.Rate(0); !ok || r != 0.5 {
		t.Errorf("merged rate = %v (ok=%v), want 0.5", r, ok)
	}
	// A one-run fold is the identity.
	single := NewFold(fig, 1)
	if err := single.Add(Cell{Figure: "f", Arm: "a", Seed: s.Seed}, mk(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if single.Arm("a").PacketsSent != 2 {
		t.Errorf("single fold PacketsSent = %d", single.Arm("a").PacketsSent)
	}

	for name, tc := range map[string]struct {
		c Cell
		r *RunResult
	}{
		"foreign figure": {Cell{Figure: "g", Arm: "a", Seed: s.Seed}, mk(1, 1, 0)},
		"unknown arm":    {Cell{Figure: "f", Arm: "b", Seed: s.Seed}, mk(1, 1, 0)},
		"seed below":     {Cell{Figure: "f", Arm: "a", Seed: s.Seed - 1}, mk(1, 1, 0)},
		"beyond runs":    {Cell{Figure: "f", Arm: "a", Seed: s.Seed + 2}, mk(1, 1, 0)},
		"no series":      {Cell{Figure: "f", Arm: "a", Seed: s.Seed}, &RunResult{}},
		"wrong shape":    {Cell{Figure: "f", Arm: "a", Seed: s.Seed}, &RunResult{Series: metrics.NewBinSeries(20*time.Second, s.BinWidth)}},
	} {
		if err := NewFold(fig, 2).Add(tc.c, tc.r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFoldOrderIndependent feeds one figure's cells to a Fold in
// canonical and in shuffled order: both results, and Figure.Run's, must
// be identical — the property campaign journal replay relies on.
func TestFoldOrderIndependent(t *testing.T) {
	s := tinyScenario()
	s.AttackMode = attack.InterArea
	s.AttackRange = radio.Range(radio.DSRC, radio.LoSMedian)
	fig := Figure{
		ID:    "order",
		Arms:  []Arm{{Label: "af", Scenario: s.withoutAttack()}, {Label: "atk", Scenario: s}},
		Pairs: []Pair{{Label: "p", Free: "af", Attacked: "atk", PaperDrop: -1}},
	}
	const runs = 3
	cells := fig.Cells(runs)
	results := make([]RunResult, len(cells))
	for i, c := range cells {
		r, err := fig.RunCell(c, Observe{})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	fold := func(order []int) FigureResult {
		fo := NewFold(fig, runs)
		for _, i := range order {
			if err := fo.Add(cells[i], &results[i]); err != nil {
				t.Fatal(err)
			}
		}
		return fo.Result()
	}
	canonical := make([]int, len(cells))
	for i := range canonical {
		canonical[i] = i
	}
	a := fold(canonical)
	b := fold(rand.New(rand.NewPCG(7, 8)).Perm(len(cells)))
	direct, err := fig.Run(runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shuffled order changed the fold")
	}
	if !reflect.DeepEqual(a, direct) {
		t.Fatal("fold of the cells differs from Figure.Run")
	}
	if a.DropSpread["p"].Runs != runs {
		t.Fatalf("DropSpread.Runs = %d", a.DropSpread["p"].Runs)
	}
}

func TestRunArmZeroAndOneRuns(t *testing.T) {
	s := tinyScenario()
	zero := RunArm(s, 0) // must clamp to one run, not panic or hang
	one := RunArm(s, 1)
	if zero.PacketsSent == 0 || one.PacketsSent == 0 {
		t.Fatalf("empty results: zero=%d one=%d", zero.PacketsSent, one.PacketsSent)
	}
	if zero.PacketsSent != one.PacketsSent {
		t.Fatalf("runs=0 must equal runs=1: %d vs %d", zero.PacketsSent, one.PacketsSent)
	}
}

func TestRunABSpreads(t *testing.T) {
	s := tinyScenario()
	s.AttackMode = attack.InterArea
	s.AttackRange = radio.Range(radio.DSRC, radio.LoSMedian)
	const runs = 3
	ab := RunAB(s, runs)
	for name, sp := range map[string]metrics.Spread{
		"free": ab.FreeSpread, "attacked": ab.AttackedSpread, "drop": ab.DropSpread,
	} {
		if sp.Runs != runs {
			t.Errorf("%s spread runs = %d, want %d", name, sp.Runs, runs)
		}
		if sp.CILow > sp.Mean || sp.CIHigh < sp.Mean {
			t.Errorf("%s CI (%v, %v) does not bracket mean %v", name, sp.CILow, sp.CIHigh, sp.Mean)
		}
	}
	// The per-run drop mean and the merged drop measure the same effect;
	// with a near-total mL interception both sit near 1.
	if ab.DropSpread.Mean < 0.5 || ab.DropRate() < 0.5 {
		t.Errorf("mL interception too weak: per-run %v, merged %v", ab.DropSpread.Mean, ab.DropRate())
	}
	// Single-run spread degenerates cleanly.
	ab1 := RunAB(s, 1)
	if ab1.DropSpread.Runs != 1 || ab1.DropSpread.Stddev != 0 {
		t.Errorf("runs=1 spread = %+v", ab1.DropSpread)
	}
	if ab1.DropSpread.CILow != ab1.DropSpread.Mean || ab1.DropSpread.CIHigh != ab1.DropSpread.Mean {
		t.Errorf("runs=1 CI must collapse onto the mean: %+v", ab1.DropSpread)
	}
}

// TestCellKeyRoundTrip checks that cell keys are unique and that every
// enumerated seed maps back to its run index.
func TestCellKeyRoundTrip(t *testing.T) {
	figs := Figures()
	fig := figs["fig7a"]
	cells := fig.Cells(2)
	if want := len(fig.Arms) * 2; len(cells) != want {
		t.Fatalf("Cells(2) = %d cells, want %d", len(cells), want)
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		key := c.Key()
		if seen[key] {
			t.Fatalf("duplicate cell key %s", key)
		}
		seen[key] = true
		idx, err := fig.RunIndex(c)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 && idx != 1 {
			t.Fatalf("run index %d for %s", idx, key)
		}
	}
}

func TestRunCellMatchesRunOnce(t *testing.T) {
	fig := Figure{
		ID:    "test",
		Title: "cell entry point",
		Arms:  []Arm{{Label: "af", Scenario: tinyScenario()}},
		Pairs: []Pair{{Label: "p", Free: "af", Attacked: "af", PaperDrop: -1}},
	}
	c := Cell{Figure: "test", Arm: "af", Seed: 1}
	got, err := fig.RunCell(c, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	want := RunOnce(tinyScenario(), 1)
	if got.PacketsSent != want.PacketsSent || got.Series.Overall() != want.Series.Overall() {
		t.Fatalf("RunCell diverges from RunOnce: %d/%v vs %d/%v",
			got.PacketsSent, got.Series.Overall(), want.PacketsSent, want.Series.Overall())
	}
	if _, err := fig.RunCell(Cell{Figure: "test", Arm: "nope", Seed: 1}, Observe{}); err == nil {
		t.Fatal("unknown arm accepted")
	}
	if _, err := fig.RunCell(Cell{Figure: "other", Arm: "af", Seed: 1}, Observe{}); err == nil {
		t.Fatal("foreign figure accepted")
	}
}

func TestFigureRunReportsSpread(t *testing.T) {
	s := tinyScenario()
	s.AttackMode = attack.InterArea
	s.AttackRange = radio.Range(radio.DSRC, radio.LoSMedian)
	fig := Figure{
		ID:    "test",
		Title: "spread",
		Arms: []Arm{
			{Label: "af", Scenario: s.withoutAttack()},
			{Label: "atk", Scenario: s},
		},
		Pairs: []Pair{{Label: "p", Free: "af", Attacked: "atk", PaperDrop: -1}},
	}
	res, err := fig.Run(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2 {
		t.Fatalf("Runs = %d", res.Runs)
	}
	for _, arm := range []string{"af", "atk"} {
		if res.ArmSpread[arm].Runs != 2 {
			t.Errorf("%s: ArmSpread.Runs = %d", arm, res.ArmSpread[arm].Runs)
		}
		if res.Packets[arm] == 0 {
			t.Errorf("%s: no packets recorded", arm)
		}
	}
	if res.DropSpread["p"].Runs != 2 {
		t.Errorf("DropSpread.Runs = %d", res.DropSpread["p"].Runs)
	}
	if res.Attacker["atk"].BeaconsReplayed == 0 {
		t.Error("attacked arm recorded no attacker activity")
	}
	if res.Attacker["af"].BeaconsReplayed != 0 {
		t.Error("attack-free arm recorded attacker activity")
	}
}
