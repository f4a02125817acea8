// Package traffic simulates the road substrate of the experiments: a
// multi-lane straight road segment with Intelligent Driver Model (IDM)
// car-following, gap-gated entry spawning, and lane-blocking hazard
// events. Parameters default to the paper's Table I, derived from the
// Maryland DOT traffic dataset.
package traffic

import "math"

// IDMParams are the Intelligent Driver Model parameters (paper Table I).
// The acceleration exponent δ is fixed at Table I's 4.
type IDMParams struct {
	DesiredSpeed  float64 // v0, m/s
	TimeHeadway   float64 // T, s
	MaxAccel      float64 // a, m/s^2
	ComfortDecel  float64 // b, m/s^2
	MinGap        float64 // s0, m
	VehicleLength float64 // l, m
}

// DefaultIDM returns the paper's Table I parameters with the 4.5 m
// vehicle length from §IV-A.
func DefaultIDM() IDMParams {
	return IDMParams{
		DesiredSpeed:  30,
		TimeHeadway:   1.5,
		MaxAccel:      1.0,
		ComfortDecel:  3.0,
		MinGap:        2,
		VehicleLength: 4.5,
	}
}

// Accel computes the IDM acceleration for a vehicle at the given speed,
// with gap meters of clear road to its leader moving at leadSpeed.
// A gap of math.Inf(1) means free road. (v/v0)^δ is two squarings, each
// rounded: bit-equal to math.Pow(v/v0, 4) wherever the result is normal,
// and below 2^-53 both leave free at exactly 1.
func (p IDMParams) Accel(speed, gap, leadSpeed float64) float64 {
	r := speed / p.DesiredSpeed
	q := float64(r * r)
	free := 1 - float64(q*q)
	if math.IsInf(gap, 1) {
		return p.MaxAccel * free
	}
	if gap < 1e-6 {
		gap = 1e-6
	}
	dv := speed - leadSpeed
	sStar := p.MinGap + float64(speed*p.TimeHeadway) + speed*dv/(2*math.Sqrt(p.MaxAccel*p.ComfortDecel))
	if sStar < p.MinGap {
		sStar = p.MinGap
	}
	return p.MaxAccel * (free - float64((sStar/gap)*(sStar/gap)))
}
