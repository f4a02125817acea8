package geonet

import (
	"fmt"
	"testing"
	"time"

	"github.com/vanetsec/georoute/internal/radio"
)

// BenchmarkPerHop measures the per-receiver cost of one broadcast hop —
// decode the frame, verify its envelope — in the two regimes the
// pipeline distinguishes:
//
//   - eager: the pre-cache behavior. Every receiver unmarshals the wire
//     bytes and re-serializes the protected region to verify.
//   - cached/fanout=N: the decode-once path. One transmission fans out
//     to N receivers sharing a radio.FrameCache; the first pays the
//     decode+verify, the other N-1 hit the memoized result. The cache is
//     reset every N iterations to model successive transmissions.
func BenchmarkPerHop(b *testing.B) {
	p, _, verifier := benchPacket(b)
	wire := p.Marshal()

	b.Run("eager", func(b *testing.B) {
		f := radio.Frame{From: 42, To: radio.BroadcastID, Payload: wire}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := DecodeFrame(f)
			if err != nil {
				b.Fatal(err)
			}
			if err := VerifyFrame(f, q, verifier, time.Second); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, fanout := range []int{8, 32} {
		b.Run(fmt.Sprintf("cached/fanout=%d", fanout), func(b *testing.B) {
			cache := &radio.FrameCache{}
			f := radio.Frame{From: 42, To: radio.BroadcastID, Payload: wire, Cache: cache}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%fanout == 0 {
					*cache = radio.FrameCache{Scratch: cache.Scratch}
				}
				q, err := DecodeFrame(f)
				if err != nil {
					b.Fatal(err)
				}
				if err := VerifyFrame(f, q, verifier, time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPerHopForward measures the transmit half of a hop: fork the
// shared packet, tweak the basic header, and marshal into a pooled
// buffer — versus the pre-pipeline deep clone plus fresh Marshal.
func BenchmarkPerHopForward(b *testing.B) {
	p, _, _ := benchPacket(b)

	b.Run("clone+marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := p.Clone()
			out.Basic.RHL--
			_ = out.Marshal()
		}
	})

	b.Run("fork+append", func(b *testing.B) {
		buf := make([]byte, 0, 512)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := p.Fork()
			out.Basic.RHL--
			buf = out.AppendMarshal(buf[:0])
		}
	})
}
