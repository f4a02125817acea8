package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointDistance(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 2), Pt(1, 2), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-3, -4), Pt(0, 0), 5},
		{"road scale", Pt(0, 2.5), Pt(4000, 2.5), 4000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.DistanceTo(tt.q); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("DistanceTo() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Pt(ax, ay), Pt(bx, by)
		return p.DistanceTo(q) == q.DistanceTo(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.DistanceTo(c) <= a.DistanceTo(b)+b.DistanceTo(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDistanceNeverBelowAxisGap pins the property the radio medium's
// pre-reject relies on: DistanceTo never returns less than the absolute
// X gap (nor the Y gap), so a receiver whose X gap alone exceeds the
// reception limit is out of range without computing the distance. The
// coordinates span ordinary road scale, huge magnitudes near overflow,
// tiny and subnormal ones, mixed scales, and uniformly random bit
// patterns.
func TestDistanceNeverBelowAxisGap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	check := func(p, q Point) {
		t.Helper()
		d := p.DistanceTo(q)
		if dx, dy := math.Abs(p.X-q.X), math.Abs(p.Y-q.Y); d < dx || d < dy {
			t.Fatalf("%v.DistanceTo(%v) = %v, below the axis gap (|dx| %v, |dy| %v)", p, q, d, dx, dy)
		}
	}
	coord := func(scale float64) float64 { return (rng.Float64()*2 - 1) * scale }
	scales := []float64{1, 1500, 1e7, 1e300, math.MaxFloat64 / 4, 1e-300, 1e-310, 5e-324}
	for _, sx := range scales {
		for _, sy := range scales {
			for i := 0; i < 2000; i++ {
				check(Pt(coord(sx), coord(sy)), Pt(coord(sx), coord(sy)))
			}
		}
	}
	finite := func() float64 {
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	for i := 0; i < 200000; i++ {
		check(Pt(finite(), finite()), Pt(finite(), finite()))
	}
	// Exact gaps: on one axis the distance is the gap itself.
	for _, g := range []float64{0, 5e-324, 1, 100, 1283, math.MaxFloat64} {
		if d := Pt(0, 7).DistanceTo(Pt(g, 7)); d != g {
			t.Fatalf("axis-aligned distance %v, want exactly %v", d, g)
		}
	}
}

func TestVectorLengthScale(t *testing.T) {
	v := Vec(3, 4)
	if v.Length() != 5 {
		t.Fatalf("Length = %v, want 5", v.Length())
	}
	if got := v.Scale(2).Length(); got != 10 {
		t.Fatalf("Scale(2).Length = %v, want 10", got)
	}
	if got := v.Scale(0); got.Length() != 0 {
		t.Fatalf("Scale(0) = %v, want zero vector", got)
	}
}

func TestHeading(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want float64
	}{
		{"north", Vec(0, 1), 0},
		{"east", Vec(1, 0), 90},
		{"south", Vec(0, -1), 180},
		{"west", Vec(-1, 0), 270},
		{"north-east", Vec(1, 1), 45},
		{"zero vector", Vec(0, 0), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Heading(); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("Heading() = %v, want %v", got, tt.want)
			}
		})
	}
}

// headingVector returns a unit vector pointing at the given compass
// heading in degrees (inverse of Vector.Heading).
func headingVector(deg float64) Vector {
	rad := deg * math.Pi / 180
	return Vector{DX: math.Sin(rad), DY: math.Cos(rad)}
}

func TestHeadingVectorRoundTrip(t *testing.T) {
	for deg := 0.0; deg < 360; deg += 15 {
		v := headingVector(deg)
		if !almostEqual(v.Length(), 1, 1e-9) {
			t.Fatalf("headingVector(%v) not unit: %v", deg, v.Length())
		}
		if got := v.Heading(); !almostEqual(got, deg, 1e-9) {
			t.Errorf("round trip %v -> %v", deg, got)
		}
	}
}

func TestCircleContains(t *testing.T) {
	c := NewCircle(Pt(100, 0), 50)
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"center", Pt(100, 0), true},
		{"inside", Pt(120, 10), true},
		{"border", Pt(150, 0), true},
		{"just outside", Pt(150.001, 0), false},
		{"far outside", Pt(0, 0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestCircleFSign(t *testing.T) {
	c := NewCircle(Pt(0, 0), 10)
	if f := c.F(Pt(5, 0)); f <= 0 {
		t.Errorf("F inside = %v, want > 0", f)
	}
	if f := c.F(Pt(10, 0)); !almostEqual(f, 0, 1e-9) {
		t.Errorf("F border = %v, want 0", f)
	}
	if f := c.F(Pt(15, 0)); f >= 0 {
		t.Errorf("F outside = %v, want < 0", f)
	}
}

func TestRectContains(t *testing.T) {
	// Road-segment style rectangle: 4000 m long, 20 m wide, axis east.
	r := NewRect(Pt(2000, 0), 2000, 10, 90)
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"center", Pt(2000, 0), true},
		{"west end", Pt(0, 0), true},
		{"east end", Pt(4000, 0), true},
		{"north edge", Pt(2000, 10), true},
		{"beyond east", Pt(4001, 0), false},
		{"beyond north", Pt(2000, 10.5), false},
		{"corner inside", Pt(3999, 9.9), true},
		{"corner outside", Pt(4001, 11), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestRectRotated(t *testing.T) {
	// Square rotated 45 degrees: vertices on the axes at distance a.
	r := NewRect(Pt(0, 0), 10, 10, 45)
	if !r.Contains(Pt(0, 0)) {
		t.Fatal("center must be inside")
	}
	// Along the rotated axis (heading 45), the half-length is 10.
	in := headingVector(45).Scale(9.9)
	if !r.Contains(Pt(in.DX, in.DY)) {
		t.Errorf("point on rotated axis at 9.9 should be inside")
	}
	out := headingVector(45).Scale(10.1)
	if r.Contains(Pt(out.DX, out.DY)) {
		t.Errorf("point on rotated axis at 10.1 should be outside")
	}
}

func TestEllipseContains(t *testing.T) {
	e := NewEllipse(Pt(0, 0), 20, 10, 90) // wide in X
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"center", Pt(0, 0), true},
		{"on major axis inside", Pt(19, 0), true},
		{"on major axis border", Pt(20, 0), true},
		{"on minor axis inside", Pt(0, 9), true},
		{"beyond major", Pt(21, 0), false},
		{"beyond minor", Pt(0, 11), false},
		{"rect corner excluded", Pt(18, 8), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := e.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestAreaFConsistencyProperty(t *testing.T) {
	// Property: Contains(p) iff F(p) >= 0, for all area kinds.
	areas := []Area{
		NewCircle(Pt(0, 0), 100),
		NewRect(Pt(0, 0), 80, 40, 30),
		NewEllipse(Pt(0, 0), 80, 40, 120),
	}
	f := func(x, y int16) bool {
		p := Pt(float64(x), float64(y))
		for _, a := range areas {
			if a.Contains(p) != (a.F(p) >= -1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentDistanceToPoint(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	tests := []struct {
		name string
		p    Point
		want float64
	}{
		{"above middle", Pt(5, 3), 3},
		{"beyond P2", Pt(13, 4), 5},
		{"beyond P1", Pt(-3, -4), 5},
		{"on segment", Pt(7, 0), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.DistanceToPoint(tt.p); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("DistanceToPoint(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

// localPerCall is the area transform as it was before the constructors
// cached the axis: it takes the sine and cosine of the azimuth on every
// call.
func localPerCall(p, center Point, azimuthDeg float64) (x, y float64) {
	rad := azimuthDeg * math.Pi / 180
	dx := p.X - center.X
	dy := p.Y - center.Y
	ax := math.Sin(rad)
	ay := math.Cos(rad)
	x = dx*ax + dy*ay
	y = -dx*ay + dy*ax
	return x, y
}

// TestAreaAxisCachedMatchesPerCall requires F and Contains of areas
// built by NewRect and NewEllipse to equal, bit for bit, the same
// formulas evaluated with the per-call transform, over random centers,
// sizes, azimuths (arbitrary, and in the wire format's 0.1° steps) and
// points inside and outside.
func TestAreaAxisCachedMatchesPerCall(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := 0; i < 20000; i++ {
		c := Pt(rng.Float64()*8000-4000, rng.Float64()*200-100)
		a, b := 1+rng.Float64()*2000, 1+rng.Float64()*100
		az := rng.Float64() * 360
		if i%2 == 0 {
			az = float64(rng.IntN(3600)) / 10
		}
		p := Pt(c.X+(rng.Float64()*2-1)*1.5*a, c.Y+(rng.Float64()*2-1)*1.5*a)
		x, y := localPerCall(p, c, az)

		r := NewRect(c, a, b, az)
		rectF := math.Min(1-(x/a)*(x/a), 1-(y/b)*(y/b))
		if !same(r.F(p), rectF) || r.Contains(p) != (rectF >= -containsTol) {
			t.Fatalf("Rect(%v, %v, %v, %v) at %v: F %v; per-call %v", c, a, b, az, p, r.F(p), rectF)
		}

		e := NewEllipse(c, a, b, az)
		ellF := 1 - (x/a)*(x/a) - (y/b)*(y/b)
		if !same(e.F(p), ellF) || e.Contains(p) != (ellF >= -containsTol) {
			t.Fatalf("Ellipse(%v, %v, %v, %v) at %v: F %v; per-call %v", c, a, b, az, p, e.F(p), ellF)
		}
	}
}
