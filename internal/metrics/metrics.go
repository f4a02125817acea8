// Package metrics implements the paper's evaluation measures: packet
// reception rates per 5-second time bin, the inter-area interception rate
// γ, the intra-area blockage rate λ (both defined as the average relative
// drop of the reception rate from attack-free to attacked scenarios over
// the run's time bins), and accumulated rates over time (Figs 8 and 10).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// DefaultBinWidth is the paper's 5-second bin.
const DefaultBinWidth = 5 * time.Second

// BinSeries accumulates per-bin outcome fractions. For the inter-area
// experiments each sample is a packet with value 1 (received at the
// destination) or 0 (lost); for the intra-area experiments each sample is
// a packet with value equal to the fraction of on-road vehicles that
// received it. Samples are attributed to the bin of their SEND time.
type BinSeries struct {
	width time.Duration
	sum   []float64
	n     []int
}

// NewBinSeries creates a series covering duration with the given bin
// width (DefaultBinWidth if zero).
func NewBinSeries(duration, width time.Duration) *BinSeries {
	if width == 0 {
		width = DefaultBinWidth
	}
	bins := int((duration + width - 1) / width)
	if bins < 1 {
		bins = 1
	}
	return &BinSeries{
		width: width,
		sum:   make([]float64, bins),
		n:     make([]int, bins),
	}
}

// Add records a sample with the given outcome value at time t. Samples
// beyond the covered duration land in the last bin.
func (s *BinSeries) Add(t time.Duration, value float64) {
	i := int(t / s.width)
	if i < 0 {
		i = 0
	}
	if i >= len(s.sum) {
		i = len(s.sum) - 1
	}
	s.sum[i] += value
	s.n[i]++
}

// Bins reports the number of bins.
func (s *BinSeries) Bins() int { return len(s.sum) }

// Width reports the bin width.
func (s *BinSeries) Width() time.Duration { return s.width }

// Rate returns the mean outcome of bin i, and false when the bin is
// empty.
func (s *BinSeries) Rate(i int) (float64, bool) {
	if s.n[i] == 0 {
		return 0, false
	}
	return s.sum[i] / float64(s.n[i]), true
}

// Count returns the number of samples in bin i.
func (s *BinSeries) Count(i int) int { return s.n[i] }

// Overall returns the mean outcome over all samples.
func (s *BinSeries) Overall() float64 {
	var sum float64
	var n int
	for i := range s.sum {
		sum += s.sum[i]
		n += s.n[i]
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Accumulated returns the running mean outcome up to and including each
// bin — the paper's "accumulated rate over time" curves.
func (s *BinSeries) Accumulated() []float64 {
	out := make([]float64, len(s.sum))
	var sum float64
	var n int
	for i := range s.sum {
		sum += s.sum[i]
		n += s.n[i]
		if n > 0 {
			out[i] = sum / float64(n)
		}
	}
	return out
}

// Clone returns an independent deep copy of the series.
func (s *BinSeries) Clone() *BinSeries {
	c := &BinSeries{
		width: s.width,
		sum:   make([]float64, len(s.sum)),
		n:     make([]int, len(s.n)),
	}
	copy(c.sum, s.sum)
	copy(c.n, s.n)
	return c
}

// Merge adds the samples of o into s. The series must be shape-compatible.
func (s *BinSeries) Merge(o *BinSeries) {
	if s.width != o.width || len(s.sum) != len(o.sum) {
		panic(fmt.Sprintf("metrics: merging incompatible series (%v/%d vs %v/%d)",
			s.width, len(s.sum), o.width, len(o.sum)))
	}
	for i := range s.sum {
		s.sum[i] += o.sum[i]
		s.n[i] += o.n[i]
	}
}

// ABResult compares an attack-free series (A) against an attacked series
// (B) of the same experiment.
type ABResult struct {
	Free     *BinSeries
	Attacked *BinSeries

	// Per-run dispersion, populated by multi-run harnesses (zero values
	// when the result came from a single merged run): the overall
	// reception rate of each arm across runs, and the seed-paired drop
	// rate (γ/λ computed per matched seed before merging).
	FreeSpread     Spread
	AttackedSpread Spread
	DropSpread     Spread
}

// DropRate is the paper's γ/λ: the average over time bins of the relative
// reception-rate drop from the attack-free to the attacked scenario.
// Bins where either side has no samples, or the attack-free rate is zero,
// are skipped.
func (r ABResult) DropRate() float64 {
	if r.Free.Bins() != r.Attacked.Bins() {
		panic("metrics: A/B series have different bin counts")
	}
	var sum float64
	var n int
	for i := 0; i < r.Free.Bins(); i++ {
		fr, okF := r.Free.Rate(i)
		ar, okA := r.Attacked.Rate(i)
		if !okF || !okA || fr <= 0 {
			continue
		}
		drop := (fr - ar) / fr
		if drop < 0 {
			drop = 0
		}
		sum += drop
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AccumulatedDrop returns the running relative drop per bin, the series
// plotted in Figs 8 and 10.
func (r ABResult) AccumulatedDrop() []float64 {
	free := r.Free.Accumulated()
	atk := r.Attacked.Accumulated()
	out := make([]float64, len(free))
	for i := range free {
		if free[i] > 0 {
			d := (free[i] - atk[i]) / free[i]
			if d < 0 {
				d = 0
			}
			out[i] = d
		}
	}
	return out
}

// Table renders labeled series as an aligned text table, one row per bin.
// It is the output backend of cmd/geosim.
func Table(width time.Duration, series map[string][]float64) string {
	labels := make([]string, 0, len(series))
	for l := range series {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "t(s)")
	for _, l := range labels {
		fmt.Fprintf(&b, " %12s", l)
	}
	b.WriteByte('\n')
	bins := 0
	for _, v := range series {
		if len(v) > bins {
			bins = len(v)
		}
	}
	for i := 0; i < bins; i++ {
		fmt.Fprintf(&b, "%-8.0f", (time.Duration(i+1) * width).Seconds())
		for _, l := range labels {
			v := series[l]
			if i < len(v) {
				fmt.Fprintf(&b, " %12.3f", v[i])
			} else {
				fmt.Fprintf(&b, " %12s", "")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders labeled series as comma-separated values with a time column
// in seconds.
func CSV(width time.Duration, series map[string][]float64) string {
	labels := make([]string, 0, len(series))
	for l := range series {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	b.WriteString("t_seconds")
	for _, l := range labels {
		b.WriteByte(',')
		b.WriteString(l)
	}
	b.WriteByte('\n')
	bins := 0
	for _, v := range series {
		if len(v) > bins {
			bins = len(v)
		}
	}
	for i := 0; i < bins; i++ {
		fmt.Fprintf(&b, "%.0f", (time.Duration(i+1) * width).Seconds())
		for _, l := range labels {
			b.WriteByte(',')
			v := series[l]
			if i < len(v) {
				fmt.Fprintf(&b, "%.4f", v[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
