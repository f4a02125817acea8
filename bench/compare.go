package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// declared is a metric as BENCHMARK.json declares it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadBenchmarkFile(name string) (*benchmarkFile, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("reading %s: %w", name, err)
	}
	return &bf, nil
}

// comparison is one (workload, metric) row of -compare.
type comparison struct {
	wins, pairs int
	verdict     string
	baseQ, newQ [3]float64 // first quartile, median, third quartile
}

// compareMetric pairs the i-th repetitions of both sides. A side wins a
// pair by reading better, ties count for neither. The change is better
// when every new repetition beats every base one, or when it wins nine
// tenths of the pairs and the medians differ by more than the base's
// interquartile range. Otherwise a spread wider than the bound leaves the
// metric unresolved, and a median worse by more than the bound is worse.
func compareMetric(base, nw []float64, bound float64, lowerBetter bool) comparison {
	c := comparison{pairs: min(len(base), len(nw))}
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	for i := 0; i < c.pairs; i++ {
		if sign*(nw[i]-base[i]) < 0 {
			c.wins++
		}
	}
	quartiles := func(xs []float64) [3]float64 {
		return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
	}
	c.baseQ, c.newQ = quartiles(base), quartiles(nw)
	rel := func(d, of float64) float64 {
		if of == 0 {
			return 0
		}
		return d / of
	}
	baseIQR := c.baseQ[2] - c.baseQ[0]
	spread := max(rel(baseIQR, c.baseQ[1]), rel(c.newQ[2]-c.newQ[0], c.newQ[1]))
	worsening := sign * rel(c.newQ[1]-c.baseQ[1], c.baseQ[1])
	allBetter := slices.Max(scaled(nw, sign)) < slices.Min(scaled(base, sign))
	switch {
	case allBetter,
		worsening < 0 && c.wins*10 >= 9*c.pairs && math.Abs(c.newQ[1]-c.baseQ[1]) > baseIQR:
		c.verdict = "better"
	case spread > bound:
		c.verdict = "unresolved"
	case worsening > bound:
		c.verdict = "worse"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// scaled multiplies by sign so that "lower is better" holds for the
// result either way.
func scaled(xs []float64, sign float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = sign * x
	}
	return out
}

// compare prints one row per (workload, end-to-end metric) of two
// results.json files and returns 1 when any row is worse.
func compare(basePath, newPath string, bf *benchmarkFile, w io.Writer) (int, error) {
	base, err := loadReport(basePath)
	if err != nil {
		return 2, err
	}
	nw, err := loadReport(newPath)
	if err != nil {
		return 2, err
	}
	bounds := map[string]declared{}
	for _, d := range bf.EndToEnd {
		bounds[d.Name] = d
	}
	code := 0
	fmt.Fprintf(w, "%-15s %-13s %-34s %-34s %-6s %s\n", "workload", "metric", "base median [q1 q3]", "new median [q1 q3]", "wins", "verdict")
	for _, wl := range workloadNames {
		b, n := base.measured(wl, false), nw.measured(wl, false)
		if len(b) == 0 || len(n) == 0 {
			continue
		}
		for _, m := range endToEnd {
			d, ok := bounds[m.name]
			if !ok {
				return 2, fmt.Errorf("BENCHMARK.json declares no end-to-end metric %s", m.name)
			}
			values := func(rp *report, reps []*rep) []float64 {
				var xs []float64
				for _, r := range reps {
					xs = append(xs, repValue(m.name, r, rp.Specs[wl].tailQuantile()))
				}
				return xs
			}
			c := compareMetric(values(base, b), values(nw, n), d.Bound, d.Better == "lower")
			fmt.Fprintf(w, "%-15s %-13s %-34s %-34s %-6s %s\n", wl, m.name,
				fmt.Sprintf("%.4g [%.4g %.4g]", c.baseQ[1], c.baseQ[0], c.baseQ[2]),
				fmt.Sprintf("%.4g [%.4g %.4g]", c.newQ[1], c.newQ[0], c.newQ[2]),
				fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
			if c.verdict == "worse" {
				code = 1
			}
		}
		ba, bfail := base.totals(wl)
		na, nfail := nw.totals(wl)
		verdict := "unchanged"
		if nfail*ba > bfail*na {
			verdict, code = "worse", 1
		}
		fmt.Fprintf(w, "%-15s %-13s %-34s %-34s %-6s %s\n", wl, "failed",
			fmt.Sprintf("%d/%d", bfail, ba), fmt.Sprintf("%d/%d", nfail, na), "", verdict)
	}
	return code, nil
}
