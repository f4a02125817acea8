package main

import (
	"crypto/sha256"
	"time"
)

// The host the benchmark runs on is shared, and its speed drifts: the same
// repetition runs 10–30% slower for minutes at a time. Before each
// repetition the parent times a fixed calibration workload, and every timed
// metric is reported as raw time × refCalibration ÷ that calibration time:
// host time at the reference speed. The raw times and calibration times stay
// in results.json.

// refCalibration is the calibration's typical time on the host the
// baselines were measured on.
const refCalibration = 300 * time.Millisecond

// calibOps sizes the calibration to about refCalibration.
const calibOps = 2_000_000

type calibNode struct {
	next *calibNode
	pay  [6]uint64
}

// calibrate times a fixed workload shaped like the simulator's: map
// lookups and inserts keyed by uint64, short-lived pointer-linked
// allocations the GC has to chase and free, and SHA-256 over small
// buffers. It runs in the parent, so its heap never shares a GC cycle with
// the simulator's.
func calibrate() time.Duration {
	start := time.Now()
	m := make(map[uint64]*calibNode)
	var head *calibNode
	x := uint64(1)
	var h [32]byte
	for i := 0; i < calibOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 47
		n := m[k]
		if n == nil || i%4 == 0 {
			n = &calibNode{next: head}
			m[k] = n
			head = n
		}
		n.pay[i%6] += x
		if i%32 == 0 {
			h = sha256.Sum256(append(make([]byte, 0, 96), h[:]...))
		}
		if i%4096 == 0 {
			head = nil
		}
	}
	return time.Since(start)
}

// hostFactor converts a repetition's raw times to the reference speed.
func (r *rep) hostFactor() float64 {
	if r.CalibS <= 0 {
		return 1
	}
	return refCalibration.Seconds() / r.CalibS
}
