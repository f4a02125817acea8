// Package geo provides planar geometric primitives used throughout the
// simulator: points, velocity vectors, and the GeoNetworking destination
// areas (circle, rectangle, ellipse) defined by ETSI EN 302 931.
//
// All coordinates are in meters on a local Cartesian plane. The paper's
// scenarios are road segments a few kilometers long, so a planar
// approximation of the WGS-84 coordinates carried by the wire format is
// exact for every experiment.
package geo

import (
	"fmt"
	"math"
)

// Point is a position on the local plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// DistanceTo reports the Euclidean distance between p and q in meters.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Vector is a displacement or velocity on the local plane.
type Vector struct {
	DX, DY float64
}

// Vec is shorthand for Vector{dx, dy}.
func Vec(dx, dy float64) Vector { return Vector{DX: dx, DY: dy} }

// Length reports the vector magnitude.
func (v Vector) Length() float64 { return math.Hypot(v.DX, v.DY) }

// Scale returns v scaled by k.
func (v Vector) Scale(k float64) Vector { return Vector{DX: v.DX * k, DY: v.DY * k} }

// Heading reports the compass-style heading of v in degrees in [0, 360):
// 0 is +Y (north), 90 is +X (east). A zero vector has heading 0.
func (v Vector) Heading() float64 {
	if v.DX == 0 && v.DY == 0 {
		return 0
	}
	deg := math.Atan2(v.DX, v.DY) * 180 / math.Pi
	if deg < 0 {
		deg += 360
	}
	return deg
}

// Area is a GeoNetworking destination area. The Inside test follows the
// ETSI EN 302 931 geometric function f(x, y): f > 0 strictly inside,
// f = 0 on the border, f < 0 outside; Contains treats the border as inside
// (within a small tolerance that absorbs rotation round-off).
type Area interface {
	// Contains reports whether p lies inside the area (border inclusive).
	Contains(p Point) bool
	// Center returns the area's center point.
	Center() Point
	// F evaluates the ETSI geometric function at p.
	F(p Point) float64
}

// containsTol absorbs floating-point round-off from the rotated-frame
// transform so that exact border points count as inside.
const containsTol = 1e-9

// axis returns the unit vector, in world coordinates, of an area's
// "long axis" at azimuth (compass degrees). Azimuth is measured like a
// heading: 0 => +Y, 90 => +X. The area constructors compute it once, so
// that evaluating an area at a point takes no sine or cosine.
func axis(azimuthDeg float64) (ax, ay float64) {
	rad := azimuthDeg * math.Pi / 180
	return math.Sin(rad), math.Cos(rad)
}

// local transforms p into the area's local frame: origin at center,
// rotated by -azimuth so that the long axis (ax, ay) becomes the local X
// axis.
func local(p, center Point, ax, ay float64) (x, y float64) {
	dx := p.X - center.X
	dy := p.Y - center.Y
	// Local x is the projection on the axis, local y on its normal.
	x = dx*ax + dy*ay
	y = -dx*ay + dy*ax
	return x, y
}

// Circle is a circular destination area.
type Circle struct {
	C Point
	R float64 // radius in meters, must be > 0
}

var _ Area = Circle{}

// NewCircle constructs a circular area centered at c with radius r.
func NewCircle(c Point, r float64) Circle { return Circle{C: c, R: r} }

// F implements Area using f = 1 - (d/r)^2.
func (a Circle) F(p Point) float64 {
	d := a.C.DistanceTo(p)
	return 1 - (d/a.R)*(d/a.R)
}

// Contains implements Area.
func (a Circle) Contains(p Point) bool { return a.F(p) >= -containsTol }

// Center implements Area.
func (a Circle) Center() Point { return a.C }

// Rect is a rectangular destination area with half-lengths A (along the
// azimuth axis) and B (normal to it). Build it with NewRect, which also
// sets the unexported unit axis that F and Contains read; a Rect literal
// has no axis.
type Rect struct {
	C          Point
	A, B       float64 // half side lengths in meters
	AzimuthDeg float64 // compass orientation of the A axis
	ax, ay     float64 // unit vector of the A axis, from AzimuthDeg
}

var _ Area = Rect{}

// NewRect constructs a rectangle centered at c. a and b are HALF side
// lengths along and across the azimuth axis.
func NewRect(c Point, a, b, azimuthDeg float64) Rect {
	ax, ay := axis(azimuthDeg)
	return Rect{C: c, A: a, B: b, AzimuthDeg: azimuthDeg, ax: ax, ay: ay}
}

// F implements Area using f = min(1-(x/a)^2, 1-(y/b)^2).
func (a Rect) F(p Point) float64 {
	x, y := local(p, a.C, a.ax, a.ay)
	fx := 1 - (x/a.A)*(x/a.A)
	fy := 1 - (y/a.B)*(y/a.B)
	return math.Min(fx, fy)
}

// Contains implements Area.
func (a Rect) Contains(p Point) bool { return a.F(p) >= -containsTol }

// Center implements Area.
func (a Rect) Center() Point { return a.C }

// Ellipse is an elliptical destination area with semi-axes A (along the
// azimuth axis) and B (normal to it). Build it with NewEllipse, which also
// sets the unexported unit axis that F and Contains read; an Ellipse
// literal has no axis.
type Ellipse struct {
	C          Point
	A, B       float64 // semi-axis lengths in meters
	AzimuthDeg float64 // compass orientation of the A axis
	ax, ay     float64 // unit vector of the A axis, from AzimuthDeg
}

var _ Area = Ellipse{}

// NewEllipse constructs an ellipse centered at c with semi-axes a, b.
func NewEllipse(c Point, a, b, azimuthDeg float64) Ellipse {
	ax, ay := axis(azimuthDeg)
	return Ellipse{C: c, A: a, B: b, AzimuthDeg: azimuthDeg, ax: ax, ay: ay}
}

// F implements Area using f = 1 - (x/a)^2 - (y/b)^2.
func (a Ellipse) F(p Point) float64 {
	x, y := local(p, a.C, a.ax, a.ay)
	return 1 - (x/a.A)*(x/a.A) - (y/a.B)*(y/a.B)
}

// Contains implements Area.
func (a Ellipse) Contains(p Point) bool { return a.F(p) >= -containsTol }

// Center implements Area.
func (a Ellipse) Center() Point { return a.C }

// Segment is a straight line segment between two points.
type Segment struct {
	P1, P2 Point
}

// DistanceToPoint reports the shortest distance from p to the segment.
func (s Segment) DistanceToPoint(p Point) float64 {
	vx, vy := s.P2.X-s.P1.X, s.P2.Y-s.P1.Y
	wx, wy := p.X-s.P1.X, p.Y-s.P1.Y
	c1 := vx*wx + vy*wy
	if c1 <= 0 {
		return p.DistanceTo(s.P1)
	}
	c2 := vx*vx + vy*vy
	if c2 <= c1 {
		return p.DistanceTo(s.P2)
	}
	t := c1 / c2
	proj := Point{X: s.P1.X + t*vx, Y: s.P1.Y + t*vy}
	return p.DistanceTo(proj)
}
