package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBinSeriesBasics(t *testing.T) {
	s := NewBinSeries(200*time.Second, 5*time.Second)
	if s.Bins() != 40 {
		t.Fatalf("Bins = %d, want 40 (paper: forty 5s bins)", s.Bins())
	}
	s.Add(1*time.Second, 1)
	s.Add(2*time.Second, 0)
	s.Add(7*time.Second, 1)
	if r, ok := s.Rate(0); !ok || r != 0.5 {
		t.Fatalf("Rate(0) = %v, %v; want 0.5", r, ok)
	}
	if r, ok := s.Rate(1); !ok || r != 1 {
		t.Fatalf("Rate(1) = %v, %v; want 1", r, ok)
	}
	if _, ok := s.Rate(2); ok {
		t.Fatal("empty bin must report !ok")
	}
	if s.Count(0) != 2 {
		t.Fatalf("Count(0) = %d", s.Count(0))
	}
}

func TestBinSeriesClamping(t *testing.T) {
	s := NewBinSeries(10*time.Second, 5*time.Second)
	s.Add(-time.Second, 1)    // clamped to first bin
	s.Add(100*time.Second, 1) // clamped to last bin
	if s.Count(0) != 1 || s.Count(1) != 1 {
		t.Fatalf("clamping failed: %d, %d", s.Count(0), s.Count(1))
	}
}

func TestOverallAndAccumulated(t *testing.T) {
	s := NewBinSeries(15*time.Second, 5*time.Second)
	s.Add(0, 1)
	s.Add(time.Second, 1)
	s.Add(6*time.Second, 0)
	s.Add(11*time.Second, 0)
	if got := s.Overall(); got != 0.5 {
		t.Fatalf("Overall = %v, want 0.5", got)
	}
	acc := s.Accumulated()
	want := []float64{1, 2.0 / 3, 0.5}
	for i := range want {
		if math.Abs(acc[i]-want[i]) > 1e-9 {
			t.Fatalf("Accumulated = %v, want %v", acc, want)
		}
	}
}

func TestAccumulatedSkipsLeadingEmpty(t *testing.T) {
	s := NewBinSeries(10*time.Second, 5*time.Second)
	s.Add(7*time.Second, 1)
	acc := s.Accumulated()
	if acc[0] != 0 || acc[1] != 1 {
		t.Fatalf("Accumulated = %v", acc)
	}
}

func TestMerge(t *testing.T) {
	a := NewBinSeries(10*time.Second, 5*time.Second)
	b := NewBinSeries(10*time.Second, 5*time.Second)
	a.Add(0, 1)
	b.Add(time.Second, 0)
	b.Add(6*time.Second, 1)
	a.Merge(b)
	if r, _ := a.Rate(0); r != 0.5 {
		t.Fatalf("merged Rate(0) = %v, want 0.5", r)
	}
	if r, _ := a.Rate(1); r != 1 {
		t.Fatalf("merged Rate(1) = %v, want 1", r)
	}
}

func TestMergeIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBinSeries(10*time.Second, 5*time.Second).Merge(NewBinSeries(20*time.Second, 5*time.Second))
}

func TestDropRate(t *testing.T) {
	free := NewBinSeries(10*time.Second, 5*time.Second)
	atk := NewBinSeries(10*time.Second, 5*time.Second)
	// Bin 0: 1.0 -> 0.5 (drop 50%); bin 1: 0.8 -> 0.8 (drop 0).
	free.Add(0, 1)
	atk.Add(0, 0.5)
	for i := 0; i < 5; i++ {
		free.Add(6*time.Second, boolVal(i != 0))
		atk.Add(6*time.Second, boolVal(i != 0))
	}
	r := ABResult{Free: free, Attacked: atk}
	if got := r.DropRate(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("DropRate = %v, want 0.25", got)
	}
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestDropRateNegativeClamped(t *testing.T) {
	// Attacked doing BETTER than attack-free clamps to zero drop.
	free := NewBinSeries(5*time.Second, 5*time.Second)
	atk := NewBinSeries(5*time.Second, 5*time.Second)
	free.Add(0, 0.5)
	atk.Add(0, 1)
	r := ABResult{Free: free, Attacked: atk}
	if got := r.DropRate(); got != 0 {
		t.Fatalf("DropRate = %v, want 0", got)
	}
}

func TestDropRateSkipsEmptyBins(t *testing.T) {
	free := NewBinSeries(10*time.Second, 5*time.Second)
	atk := NewBinSeries(10*time.Second, 5*time.Second)
	free.Add(0, 1)
	atk.Add(0, 0) // bin 0: full drop; bin 1 empty on both sides
	r := ABResult{Free: free, Attacked: atk}
	if got := r.DropRate(); got != 1 {
		t.Fatalf("DropRate = %v, want 1", got)
	}
}

func TestAccumulatedDrop(t *testing.T) {
	free := NewBinSeries(10*time.Second, 5*time.Second)
	atk := NewBinSeries(10*time.Second, 5*time.Second)
	free.Add(0, 1)
	free.Add(6*time.Second, 1)
	atk.Add(0, 1)
	atk.Add(6*time.Second, 0)
	r := ABResult{Free: free, Attacked: atk}
	got := r.AccumulatedDrop()
	if got[0] != 0 || math.Abs(got[1]-0.5) > 1e-9 {
		t.Fatalf("AccumulatedDrop = %v, want [0, 0.5]", got)
	}
}

func TestGammaProperty(t *testing.T) {
	// Property: DropRate is always within [0, 1] whatever the samples.
	f := func(freeVals, atkVals []bool) bool {
		free := NewBinSeries(50*time.Second, 5*time.Second)
		atk := NewBinSeries(50*time.Second, 5*time.Second)
		for i, v := range freeVals {
			free.Add(time.Duration(i)*time.Second, boolVal(v))
		}
		for i, v := range atkVals {
			atk.Add(time.Duration(i)*time.Second, boolVal(v))
		}
		g := ABResult{Free: free, Attacked: atk}.DropRate()
		return g >= 0 && g <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableAndCSV(t *testing.T) {
	series := map[string][]float64{
		"af":  {1, 0.9},
		"atk": {0.5},
	}
	table := Table(5*time.Second, series)
	if !strings.Contains(table, "af") || !strings.Contains(table, "atk") {
		t.Fatalf("Table missing labels:\n%s", table)
	}
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 3 { // header + 2 bins
		t.Fatalf("Table has %d lines:\n%s", len(lines), table)
	}
	csv := CSV(5*time.Second, series)
	if !strings.HasPrefix(csv, "t_seconds,af,atk\n") {
		t.Fatalf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "5,1.0000,0.5000") {
		t.Fatalf("CSV row wrong:\n%s", csv)
	}
	// Missing trailing values must produce empty cells, not panic.
	if !strings.Contains(csv, "10,0.9000,") {
		t.Fatalf("CSV second row wrong:\n%s", csv)
	}
}

func TestMeanStddev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if Stddev([]float64{5}) != 0 {
		t.Fatal("Stddev of singleton != 0")
	}
	if got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.138) > 0.01 {
		t.Fatalf("Stddev = %v, want ~2.138", got)
	}
}
