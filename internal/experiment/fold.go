package experiment

import (
	"fmt"

	"github.com/vanetsec/georoute/internal/attack"
	"github.com/vanetsec/georoute/internal/detect"
	"github.com/vanetsec/georoute/internal/geonet"
	"github.com/vanetsec/georoute/internal/metrics"
)

// Fold is the one fold of a figure's seeded runs into its FigureResult:
// per-arm merged series and counters, per-run spreads, and seed-paired
// drop rates. Runs arrive in any order — pool workers finish out of order
// and a campaign journal replays in the previous process's completion
// order — but every statistic whose value depends on float summation
// order is folded strictly in seed order: out-of-order arrivals wait in a
// small pending buffer (bounded by the scheduling skew, not the run count)
// until their predecessors arrive. That is what makes Figure.Run, a
// campaign, and a resumed campaign produce bit-identical results. A Fold
// is not safe for concurrent use.
type Fold struct {
	fig   Figure
	runs  int
	arms  map[string]*armFold
	pairs []*pairFold // parallel to fig.Pairs
}

// armFold streams one arm: Welford over per-run overall rates, plus the
// merged run (a fixed-size series, so memory stays flat at any run count).
type armFold struct {
	shape   *metrics.BinSeries // an empty series of the arm's width and length
	next    int
	pending map[int]*RunResult
	merged  RunResult
	overall metrics.Stream
	det     detect.Fold
}

// pairFold streams the seed-paired drop rate of one pair. It holds each
// run's series only until its counterpart arrives.
type pairFold struct {
	next  int
	free  map[int]*metrics.BinSeries
	atk   map[int]*metrics.BinSeries
	drops metrics.Stream
}

// NewFold prepares the streaming state for `runs` seeded repetitions of
// every arm of f (runs <= 0 means one).
func NewFold(f Figure, runs int) *Fold {
	if runs <= 0 {
		runs = 1
	}
	fo := &Fold{fig: f, runs: runs, arms: make(map[string]*armFold, len(f.Arms))}
	for _, arm := range f.Arms {
		fo.arms[arm.Label] = &armFold{
			shape:   metrics.NewBinSeries(arm.Scenario.Duration, arm.Scenario.BinWidth),
			pending: make(map[int]*RunResult),
		}
	}
	for range f.Pairs {
		fo.pairs = append(fo.pairs, &pairFold{
			free: make(map[int]*metrics.BinSeries),
			atk:  make(map[int]*metrics.BinSeries),
		})
	}
	return fo
}

// Add folds the run of one cell. It rejects a cell of another figure or
// an unknown arm, a seed outside the arm's [base, base+runs) range, and a
// run whose bin series does not fit its arm (a journal line is outside
// input: a series of the wrong shape would make the merge panic).
func (fo *Fold) Add(c Cell, r *RunResult) error {
	if c.Figure != fo.fig.ID {
		return fmt.Errorf("experiment: cell %s folded into figure %s", c.Key(), fo.fig.ID)
	}
	idx, err := fo.fig.RunIndex(c)
	if err != nil {
		return err
	}
	if idx >= fo.runs {
		return fmt.Errorf("experiment: cell %s has run index %d beyond runs=%d", c.Key(), idx, fo.runs)
	}
	arm := fo.arms[c.Arm]
	if s := r.Series; s == nil || s.Width() != arm.shape.Width() || s.Bins() != arm.shape.Bins() {
		return fmt.Errorf("experiment: cell %s has a bin series that does not fit its arm", c.Key())
	}
	arm.add(idx, r)
	for i, p := range fo.fig.Pairs {
		if p.Free == c.Arm {
			fo.pairs[i].feed(fo.pairs[i].free, idx, r.Series)
		}
		if p.Attacked == c.Arm {
			fo.pairs[i].feed(fo.pairs[i].atk, idx, r.Series)
		}
	}
	return nil
}

func (g *armFold) add(idx int, r *RunResult) {
	g.pending[idx] = r
	for {
		r, ok := g.pending[g.next]
		if !ok {
			return
		}
		delete(g.pending, g.next)
		g.next++
		// The overall-rate stream sees runs in seed order, and the merged
		// series accumulates run 0 + run 1 + … left to right.
		g.overall.Add(r.Series.Overall())
		m := &g.merged
		if m.Series == nil {
			m.Series = r.Series.Clone()
		} else {
			m.Series.Merge(r.Series)
		}
		m.PacketsSent += r.PacketsSent
		m.AttackerStats.Add(r.AttackerStats)
		m.Protocol.Add(r.Protocol)
		m.Events += r.Events
		m.LatencySumSeconds += r.LatencySumSeconds
		m.LatencyCount += r.LatencyCount
		g.det.Add(r.Detection)
	}
}

// feed parks one side's series of run idx and drains every run whose
// two sides are both present, in seed order.
func (p *pairFold) feed(side map[int]*metrics.BinSeries, idx int, s *metrics.BinSeries) {
	side[idx] = s
	for {
		f, okF := p.free[p.next]
		at, okA := p.atk[p.next]
		if !okF || !okA {
			return
		}
		delete(p.free, p.next)
		delete(p.atk, p.next)
		p.next++
		p.drops.Add(metrics.ABResult{Free: f, Attacked: at}.DropRate())
	}
}

// Arm returns the merged run of one arm: its series and counters summed
// over every run folded so far, with no per-run Detection summary (see
// Detection for the arm-level fold).
func (fo *Fold) Arm(label string) RunResult {
	return fo.arms[label].merged
}

// Detection returns each arm's folded misbehavior-detection report.
func (fo *Fold) Detection() map[string]detect.ArmSummary {
	out := make(map[string]detect.ArmSummary, len(fo.arms))
	for label, g := range fo.arms {
		out[label] = g.det.Result()
	}
	return out
}

// Result assembles the FigureResult. It is complete once every cell of
// f.Cells(runs) has been added.
func (fo *Fold) Result() FigureResult {
	res := FigureResult{
		Figure:      fo.fig,
		Runs:        fo.runs,
		Rates:       make(map[string][]float64),
		Overall:     make(map[string]float64),
		ArmSpread:   make(map[string]metrics.Spread),
		Packets:     make(map[string]int),
		Attacker:    make(map[string]attack.Stats),
		Drops:       make(map[string]float64),
		DropSpread:  make(map[string]metrics.Spread),
		AccumDrops:  make(map[string][]float64),
		Protocol:    make(map[string]geonet.Stats),
		LatencyMean: make(map[string]float64),
	}
	for _, arm := range fo.fig.Arms {
		g := fo.arms[arm.Label]
		m := g.merged
		res.BinWidth = arm.Scenario.BinWidth
		res.ArmSpread[arm.Label] = g.overall.Spread()
		rates := make([]float64, m.Series.Bins())
		for i := range rates {
			rates[i], _ = m.Series.Rate(i)
		}
		res.Rates[arm.Label] = rates
		res.Overall[arm.Label] = m.Series.Overall()
		res.Packets[arm.Label] = m.PacketsSent
		res.Attacker[arm.Label] = m.AttackerStats
		res.Protocol[arm.Label] = m.Protocol
		if m.LatencyCount > 0 {
			res.LatencyMean[arm.Label] = m.LatencySumSeconds / float64(m.LatencyCount)
		} else {
			res.LatencyMean[arm.Label] = 0
		}
	}
	for i, p := range fo.fig.Pairs {
		ab := metrics.ABResult{Free: fo.arms[p.Free].merged.Series, Attacked: fo.arms[p.Attacked].merged.Series}
		res.Drops[p.Label] = ab.DropRate()
		res.DropSpread[p.Label] = fo.pairs[i].drops.Spread()
		res.AccumDrops[p.Label] = ab.AccumulatedDrop()
	}
	return res
}
