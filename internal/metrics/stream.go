package metrics

import "math"

// Stream accumulates streaming moments of a sample sequence using
// Welford's online algorithm, so campaign-scale aggregation (100+ runs per
// arm) keeps memory flat: three words per tracked statistic regardless of
// run count. Feeding order is part of the contract — callers that need
// bit-identical results across interrupted/resumed aggregations must feed
// samples in a canonical order (the campaign aggregator feeds in seed
// order).
type Stream struct {
	N    int
	Mean float64
	// M2 is the running sum of squared deviations from the mean.
	M2 float64
	// Min and Max track the sample extremes (meaningful only when N > 0).
	Min float64
	Max float64
}

// Add folds one sample into the stream.
func (s *Stream) Add(x float64) {
	if s.N == 0 || x < s.Min {
		s.Min = x
	}
	if s.N == 0 || x > s.Max {
		s.Max = x
	}
	s.N++
	d := x - s.Mean
	s.Mean += d / float64(s.N)
	// Rounding the product keeps arm64 from fusing it, so the moments
	// are the same on every architecture.
	s.M2 += float64(d * (x - s.Mean))
}

// Variance returns the sample variance (0 for fewer than two samples).
func (s *Stream) Variance() float64 {
	if s.N < 2 {
		return 0
	}
	return s.M2 / float64(s.N-1)
}

// Stddev returns the sample standard deviation.
func (s *Stream) Stddev() float64 { return math.Sqrt(s.Variance()) }

// CI95 returns the two-sided 95% confidence interval of the mean using
// Student's t critical values. With fewer than two samples both bounds
// collapse onto the mean.
func (s *Stream) CI95() (lo, hi float64) {
	if s.N < 2 {
		return s.Mean, s.Mean
	}
	half := tCrit95(s.N-1) * s.Stddev() / math.Sqrt(float64(s.N))
	return s.Mean - half, s.Mean + half
}

// Spread snapshots the stream's scalar statistics.
func (s *Stream) Spread() Spread {
	lo, hi := s.CI95()
	return Spread{Runs: s.N, Mean: s.Mean, Stddev: s.Stddev(), CILow: lo, CIHigh: hi, Min: s.Min, Max: s.Max}
}

// Spread reports per-run dispersion of a repeated measurement: sample
// mean, sample standard deviation, the 95% confidence interval of the
// mean, and the observed extremes. The zero value means "not measured"
// (single merged result).
type Spread struct {
	Runs   int     `json:"runs"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	CILow  float64 `json:"ci95_low"`
	CIHigh float64 `json:"ci95_high"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// tTable holds two-sided 95% Student-t critical values for df 1..30.
var tTable = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit95 returns the two-sided 95% t critical value for df degrees of
// freedom (exact table through 30, then the conventional step-downs to the
// normal limit).
func tCrit95(df int) float64 {
	switch {
	case df < 1:
		return math.Inf(1)
	case df <= len(tTable):
		return tTable[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}
