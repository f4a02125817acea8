package telemetry

import (
	"io"
	"testing"
)

// BenchmarkNilGaugeSet is the cost every sample site pays with telemetry
// off: a nil-receiver check that inlines to nothing.
func BenchmarkNilGaugeSet(b *testing.B) {
	var g *Gauge
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

// BenchmarkGaugeSet is the live publish: one atomic store.
func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("g")
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

// BenchmarkCounterAdd is the live counter bump: one atomic add.
func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkWriteJSON is one full /telemetry.json scrape over a registry
// the size a campaign run produces (~30 series).
func BenchmarkWriteJSON(b *testing.B) {
	r := NewRegistry()
	RegisterRuntime(r)
	for w := 0; w < 2; w++ {
		NewRunGauges(r, w)
	}
	NewCampaignGauges(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
