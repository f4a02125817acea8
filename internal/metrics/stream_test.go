package metrics

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"
)

func TestStreamMatchesBatchStatistics(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(200)
		xs := make([]float64, n)
		var st Stream
		for i := range xs {
			xs[i] = rng.Float64() * 100
			st.Add(xs[i])
		}
		if st.N != n {
			t.Fatalf("N = %d, want %d", st.N, n)
		}
		if m := Mean(xs); math.Abs(st.Mean-m) > 1e-9 {
			t.Fatalf("stream mean %v, batch mean %v", st.Mean, m)
		}
		if sd := Stddev(xs); math.Abs(st.Stddev()-sd) > 1e-9 {
			t.Fatalf("stream stddev %v, batch stddev %v", st.Stddev(), sd)
		}
	}
}

func TestStreamMinMax(t *testing.T) {
	var st Stream
	for _, x := range []float64{3, -1, 7, 2} {
		st.Add(x)
	}
	if st.Min != -1 || st.Max != 7 {
		t.Fatalf("Min/Max = %v/%v, want -1/7", st.Min, st.Max)
	}
	sp := st.Spread()
	if sp.Min != -1 || sp.Max != 7 {
		t.Fatalf("Spread Min/Max = %v/%v, want -1/7", sp.Min, sp.Max)
	}
	// Negative-only samples must not report a spurious zero Min/Max.
	st = Stream{}
	st.Add(-5)
	st.Add(-2)
	if st.Min != -5 || st.Max != -2 {
		t.Fatalf("negative-only Min/Max = %v/%v, want -5/-2", st.Min, st.Max)
	}
}

func TestStreamMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 5))
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 2+rng.IntN(300))
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		var whole Stream
		for _, x := range xs {
			whole.Add(x)
		}
		cut := 1 + rng.IntN(len(xs)-1)
		var a, b Stream
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.N != whole.N || a.Min != whole.Min || a.Max != whole.Max {
			t.Fatalf("merged N/Min/Max = %d/%v/%v, want %d/%v/%v",
				a.N, a.Min, a.Max, whole.N, whole.Min, whole.Max)
		}
		if math.Abs(a.Mean-whole.Mean) > 1e-9 || math.Abs(a.Stddev()-whole.Stddev()) > 1e-9 {
			t.Fatalf("merged mean/stddev %v/%v, sequential %v/%v",
				a.Mean, a.Stddev(), whole.Mean, whole.Stddev())
		}
	}
}

func TestStreamMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 8))
	parts := make([]Stream, 6)
	for i := range parts {
		for j := 0; j < 1+rng.IntN(40); j++ {
			parts[i].Add(rng.Float64()*50 - 10)
		}
	}
	var fwd, rev Stream
	for i := 0; i < len(parts); i++ {
		fwd.Merge(parts[i])
	}
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(parts[i])
	}
	// N, Min, and Max merge exactly in any order.
	if fwd.N != rev.N || fwd.Min != rev.Min || fwd.Max != rev.Max {
		t.Fatalf("order changed exact fields: %+v vs %+v", fwd, rev)
	}
	// Moments agree up to floating-point rounding.
	if math.Abs(fwd.Mean-rev.Mean) > 1e-9 || math.Abs(fwd.Stddev()-rev.Stddev()) > 1e-9 {
		t.Fatalf("order changed moments: %+v vs %+v", fwd, rev)
	}
}

func TestStreamMergeEmpty(t *testing.T) {
	var a, b Stream
	a.Merge(b)
	if a.N != 0 {
		t.Fatalf("empty merge produced samples: %+v", a)
	}
	b.Add(4)
	b.Add(6)
	a.Merge(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("merge into empty = %+v, want copy of %+v", a, b)
	}
	saved := b
	b.Merge(Stream{})
	if !reflect.DeepEqual(b, saved) {
		t.Fatalf("merging an empty stream changed the receiver: %+v vs %+v", b, saved)
	}
}

func TestStreamCI95(t *testing.T) {
	var st Stream
	if lo, hi := st.CI95(); lo != 0 || hi != 0 {
		t.Fatalf("empty stream CI = (%v, %v)", lo, hi)
	}
	st.Add(5)
	if lo, hi := st.CI95(); lo != 5 || hi != 5 {
		t.Fatalf("single-sample CI must collapse onto the mean, got (%v, %v)", lo, hi)
	}
	// Known case: samples 1..5 have mean 3, stddev sqrt(2.5); with df=4
	// the t critical value is 2.776.
	st = Stream{}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		st.Add(x)
	}
	half := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	lo, hi := st.CI95()
	if math.Abs(lo-(3-half)) > 1e-9 || math.Abs(hi-(3+half)) > 1e-9 {
		t.Fatalf("CI95 = (%v, %v), want (%v, %v)", lo, hi, 3-half, 3+half)
	}
	sp := st.Spread()
	if sp.Runs != 5 || sp.Mean != 3 || sp.CILow != lo || sp.CIHigh != hi {
		t.Fatalf("Spread = %+v", sp)
	}
}

func TestTCritMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		c := tCrit95(df)
		if c > prev {
			t.Fatalf("t crit not non-increasing at df=%d: %v > %v", df, c, prev)
		}
		prev = c
	}
	if prev != 1.960 {
		t.Fatalf("large-df limit = %v, want 1.960", prev)
	}
}

func TestBinSeriesJSONRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 100; trial++ {
		s := NewBinSeries(time.Duration(1+rng.IntN(40))*5*time.Second, 5*time.Second)
		for i := 0; i < rng.IntN(500); i++ {
			s.Add(time.Duration(rng.IntN(200))*time.Second, rng.Float64())
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back BinSeries
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		// Bit-exactness, not approximate equality: resumed campaigns merge
		// journaled series and must reproduce uninterrupted runs byte for
		// byte.
		if !reflect.DeepEqual(s, &back) {
			t.Fatalf("trial %d: round trip changed the series", trial)
		}
	}
}

func TestBinSeriesJSONRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`{"width_ns":0,"sum":[1],"n":[1]}`,
		`{"width_ns":5000000000,"sum":[1,2],"n":[1]}`,
		`{"width_ns":5000000000,"sum":[],"n":[]}`,
	} {
		var s BinSeries
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("accepted malformed series %s", bad)
		}
	}
}

func TestBinSeriesClone(t *testing.T) {
	s := NewBinSeries(20*time.Second, 5*time.Second)
	s.Add(time.Second, 1)
	s.Add(7*time.Second, 0.5)
	c := s.Clone()
	if !reflect.DeepEqual(s, c) {
		t.Fatal("clone differs from original")
	}
	c.Add(time.Second, 1)
	if r0, _ := s.Rate(0); r0 != 1 {
		t.Fatal("mutating the clone changed the original")
	}
}
