package forward

import (
	"math"
	"testing"

	"github.com/vanetsec/georoute/internal/geo"
	"github.com/vanetsec/georoute/internal/geonet"
)

func entsAt(points ...geo.Point) []*geonet.LocTEntry {
	ents := make([]*geonet.LocTEntry, len(points))
	for i, p := range points {
		e := &geonet.LocTEntry{PV: geonet.PositionVector{Addr: geonet.Address(i + 1), Pos: p}}
		ents[i] = e
	}
	return ents
}

func TestGabrielKeep(t *testing.T) {
	self := geo.Pt(0, 0)
	tests := []struct {
		name    string
		v       geo.Point
		witness geo.Point
		keep    bool
	}{
		// Witness at the circle center: strictly inside, edge removed.
		{"witness inside", geo.Pt(100, 0), geo.Pt(50, 0), false},
		// Witness well outside the diameter circle.
		{"witness outside", geo.Pt(100, 0), geo.Pt(50, 200), true},
		// Witness exactly ON the circle (right angle at witness): the
		// strict test keeps the edge.
		{"witness on circle", geo.Pt(100, 0), geo.Pt(50, 50), true},
	}
	for _, tc := range tests {
		ents := entsAt(tc.v, tc.witness)
		if got := gabrielKeep(self, tc.v, ents[0].PV.Addr, ents); got != tc.keep {
			t.Errorf("%s: gabrielKeep = %v, want %v", tc.name, got, tc.keep)
		}
	}
}

func TestSegIntersect(t *testing.T) {
	// Proper crossing at the origin.
	if x, ok := segIntersect(geo.Pt(-1, -1), geo.Pt(1, 1), geo.Pt(-1, 1), geo.Pt(1, -1)); !ok {
		t.Fatal("crossing segments reported disjoint")
	} else if math.Abs(x.X) > 1e-12 || math.Abs(x.Y) > 1e-12 {
		t.Fatalf("intersection = %+v, want origin", x)
	}
	// Disjoint segments.
	if _, ok := segIntersect(geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(0, 1), geo.Pt(1, 1)); ok {
		t.Fatal("disjoint segments reported crossing")
	}
	// Parallel (and collinear) segments never count as a crossing.
	if _, ok := segIntersect(geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(0, 0.5), geo.Pt(1, 0.5)); ok {
		t.Fatal("parallel segments reported crossing")
	}
	if _, ok := segIntersect(geo.Pt(0, 0), geo.Pt(2, 0), geo.Pt(1, 0), geo.Pt(3, 0)); ok {
		t.Fatal("collinear overlap reported crossing")
	}
	// Endpoint touch counts (t or u at the boundary).
	if _, ok := segIntersect(geo.Pt(0, 0), geo.Pt(1, 1), geo.Pt(0, 0), geo.Pt(1, -1)); !ok {
		t.Fatal("shared-endpoint segments reported disjoint")
	}
}

func TestCounterCBFThreshold(t *testing.T) {
	pol := NewCounterCBF(2)
	if pol.CancelOnDuplicate(nil, 5, 5, 1) {
		t.Fatal("k=2 policy canceled on the first duplicate")
	}
	if !pol.CancelOnDuplicate(nil, 5, 5, 2) {
		t.Fatal("k=2 policy did not cancel on the second duplicate")
	}
	std := SlottedCBF{Slots: DefaultSlots}
	if !std.CancelOnDuplicate(nil, 5, 5, 1) {
		t.Fatal("slotted policy must keep standard first-duplicate suppression")
	}
}
